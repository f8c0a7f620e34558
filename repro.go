// Package repro renders the evaluation of the Summit power/energy/thermal
// reproduction (Shin et al., SC '21): one entry of SourceReports per table
// and figure, over a closed-loop digital twin of the Summit HPC data center.
//
// Each entry reads a source.RunSource once for its text and its figure data,
// so it renders the same from a run just simulated and from its archive:
//
//	data, _, err := core.CollectRun(repro.ScaledConfig(256, 6*time.Hour))
//	reports := repro.Render(data.Source())
//	src, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
//	reports = repro.Render(src)
//
// Every report read from a run is a SourceReports entry; Figure 5's year is
// a year-long run (summitsim -days 366) read the same way. Paper §8's
// power-cap what-if is the whatif catalog study power-cap, which cmd/repro
// -powercap renders as its section-8 report.
//
// The analyses themselves live in internal/core.
package repro

import (
	"time"

	"repro/internal/sim"
)

// Config parameterizes a simulation run. It is the digital twin's knob
// set: system size, span, coarsening window, sampling, workload volume and
// failure acceleration.
type Config = sim.Config

// ScaledConfig returns a deterministic configuration for a scaled system
// of the given node count over the given span, with workload volume
// proportional to Summit's ~840k jobs/year.
func ScaledConfig(nodes int, span time.Duration) Config {
	return sim.Scaled(nodes, int64(span/time.Second))
}
