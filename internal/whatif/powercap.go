package whatif

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/units"
)

// PowerCapOutcome is the measured effect of one power-cap setting: the
// trade between peak power (what the facility must provision cooling for)
// and scheduling cost (wait times, throughput).
type PowerCapOutcome struct {
	CapW        float64 // 0 = uncapped baseline
	PeakPowerW  float64
	P99PowerW   float64
	MeanPowerW  float64
	MeanPUE     float64
	MeanWaitSec float64
	JobsPlaced  int
	JobsSkipped int
	Utilization float64
	// EdgeCount is the number of cluster-level scale-equivalent-MW edges
	// (the violent swings the paper ties to overcooling).
	EdgeCount int
}

// PowerCapExperiment quantifies the paper's concluding claim (§8) — that
// power-aware scheduling can tame the peak/average gap — as a paired
// sweep: the same frozen workload under a sweep of admission caps. Caps
// are fractions of the uncapped run's peak power (e.g. 0.9, 0.8, 0.7), so
// the baseline (cap 0) runs first and is always outcome 0; the capped
// arms then run in parallel. Failure injection is off: the power analysis
// does not read it.
//
//lint:detroot
func PowerCapExperiment(base sim.Config, capFracs []float64) ([]PowerCapOutcome, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	for _, frac := range capFracs {
		if !(frac > 0 && frac <= 1) {
			return nil, fmt.Errorf("whatif: cap fraction %v outside (0, 1]", frac)
		}
	}
	if err := freeze(&base); err != nil {
		return nil, err
	}
	base.FailureRateScale = sim.FailureRateOff
	base.PowerCap = 0 // outcome 0 is the uncapped baseline whatever base says
	run := func(arms []sim.Config) ([]PowerCapOutcome, error) {
		return runPaired(arms, 0, func(i int, d *core.RunData, res *sim.Result) (PowerCapOutcome, error) {
			return capOutcome(arms[i], d, res)
		})
	}
	outcomes, err := run([]sim.Config{base})
	if err != nil {
		return nil, err
	}
	arms := make([]sim.Config, len(capFracs))
	for i, frac := range capFracs {
		arms[i] = base
		arms[i].PowerCap = units.Watts(outcomes[0].PeakPowerW * frac)
	}
	capped, err := run(arms)
	if err != nil {
		return nil, err
	}
	return append(outcomes, capped...), nil
}

// capOutcome reduces one arm's run to its outcome.
func capOutcome(cfg sim.Config, d *core.RunData, res *sim.Result) (PowerCapOutcome, error) {
	series := d.Source().SeriesByName
	truePower := series[source.SeriesClusterTruePower]
	power := truePower.Clean()
	if len(power) == 0 {
		return PowerCapOutcome{}, fmt.Errorf("whatif: cap arm produced no power data")
	}
	m := stats.Summarize(power)
	out := PowerCapOutcome{
		CapW:        float64(cfg.PowerCap),
		PeakPowerW:  m.Max,
		P99PowerW:   stats.Quantile(power, 0.99),
		MeanPowerW:  m.Mean(),
		JobsPlaced:  len(res.Allocations),
		JobsSkipped: res.Skipped,
		Utilization: res.Utilization,
		EdgeCount:   len(core.DetectEdgesThreshold(truePower, core.ScaleEquivalentMW(cfg.Nodes))),
	}
	if pue := series[source.SeriesPUE].Clean(); len(pue) > 0 {
		if out.MeanPUE = stats.Mean(pue); math.IsNaN(out.MeanPUE) {
			out.MeanPUE = 0
		}
	}
	var waitSum float64
	for i := range res.Allocations {
		waitSum += float64(res.Allocations[i].WaitSec())
	}
	if len(res.Allocations) > 0 {
		out.MeanWaitSec = waitSum / float64(len(res.Allocations))
	}
	return out, nil
}
