// Command scenario manages the declarative scenario catalog: named,
// versioned specs bundling everything a twin run needs (topology, workload
// source, weather and failure regimes, plant tuning, cap schedules, span,
// seed) into a single bit-reproducible artifact.
//
// Usage:
//
//	scenario -list
//	scenario -describe <name|spec.json>
//	scenario -diff <a>,<b>
//
// To run a scenario and archive it, use summitsim -scenario.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/whatif"
)

// options carries the parsed flag surface so run is testable.
type options struct {
	list     bool
	describe string
	diff     string
}

// validate rejects inconsistent flag combinations before any work runs.
func (o options) validate() error {
	modes := 0
	for _, on := range []bool{o.list, o.describe != "", o.diff != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("exactly one of -list, -describe, -diff is required")
	}
	if o.diff != "" && len(strings.Split(o.diff, ",")) != 2 {
		return fmt.Errorf("-diff takes exactly two scenarios: -diff a,b")
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("scenario: ")
	var o options
	flag.BoolVar(&o.list, "list", false, "list the scenario catalog and exit")
	flag.StringVar(&o.describe, "describe", "", "print a scenario's resolved spec and identity (catalog name or spec file)")
	flag.StringVar(&o.diff, "diff", "", "run two scenarios and diff their objective reports: -diff a,b")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		log.Fatal(err)
	}
}

// run executes one scenario invocation, writing human output to w.
func run(w io.Writer, o options) error {
	if err := o.validate(); err != nil {
		return err
	}
	switch {
	case o.list:
		return list(w)
	case o.describe != "":
		return describe(w, o.describe)
	default:
		parts := strings.Split(o.diff, ",")
		return diff(w, strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]))
	}
}

// list prints the catalog with each scenario's run dimensions.
func list(w io.Writer) error {
	for _, s := range scenario.Catalog() {
		src := s.Workload.Source
		if src == "" {
			src = scenario.SourceGenerator
		}
		fmt.Fprintf(w, "%-22s %4d nodes %9s  %-9s %s\n    %s\n",
			s.Name, s.Nodes, (time.Duration(s.DurationSec) * time.Second).String(),
			src, weatherLabel(s.Weather), s.Description)
	}
	return nil
}

func weatherLabel(weather string) string {
	if weather == "" {
		return scenario.WeatherWinter
	}
	return weather
}

// describe resolves ref and prints the spec, the derived identity and the
// trace-conversion stats.
func describe(w io.Writer, ref string) error {
	r, err := scenario.Resolve(ref)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r.Spec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", raw)
	fmt.Fprintf(w, "hash %s  run seed %d\n", r.Identity(), r.Seed)
	fmt.Fprintf(w, "compiled: %d nodes, %s, start %d, %d explicit jobs\n",
		r.Config.Nodes, (time.Duration(r.Config.DurationSec) * time.Second).String(),
		r.Config.StartTime, len(r.Config.Workload))
	if st := r.TraceStats; st.Rows > 0 {
		fmt.Fprintf(w, "trace: %d rows -> %d jobs (%d zero-duration, %d beyond horizon), peak %d nodes, span %s\n",
			st.Rows, st.Jobs, st.ZeroDuration, st.BeyondHorizon, st.PeakNodes,
			(time.Duration(st.SpanSec) * time.Second).String())
	}
	return nil
}

// diff runs two scenarios and prints their objective reports side by side.
func diff(w io.Writer, refA, refB string) error {
	ra, err := scenario.Resolve(refA)
	if err != nil {
		return err
	}
	rb, err := scenario.Resolve(refB)
	if err != nil {
		return err
	}
	assess := func(r *scenario.Resolved) (whatif.Report, error) {
		data, _, err := core.CollectRun(r.Config)
		if err != nil {
			return whatif.Report{}, err
		}
		return r.Assess(data.Source())
	}
	repA, err := assess(ra)
	if err != nil {
		return err
	}
	repB, err := assess(rb)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-24s %16s %16s %16s\n", "metric", ra.Spec.Name, rb.Spec.Name, "delta")
	for _, row := range []struct {
		name string
		a, b float64
	}{
		{"mean PUE", repA.MeanPUE, repB.MeanPUE},
		{"IT energy (MWh)", repA.ITEnergyMWh, repB.ITEnergyMWh},
		{"total energy (MWh)", repA.TotalEnergyMWh, repB.TotalEnergyMWh},
		{"violation (s)", repA.ViolationSec, repB.ViolationSec},
		{"violation (GPU·s)", repA.ViolationGPUSec, repB.ViolationGPUSec},
		{"overcooling (ton·h)", repA.OvercoolingTonH, repB.OvercoolingTonH},
		{"failures", float64(repA.Failures), float64(repB.Failures)},
		{"jobs completed", float64(repA.JobsCompleted), float64(repB.JobsCompleted)},
		{"utilization", repA.Utilization, repB.Utilization},
		{"score", repA.Score, repB.Score},
	} {
		fmt.Fprintf(w, "%-24s %16.4f %16.4f %+16.4f\n", row.name, row.a, row.b, row.b-row.a)
	}
	return nil
}
