// Command optimize runs the what-if control plane: it sweeps plant and
// scheduler knobs over deterministic batch evaluations of the twin and
// reports the best operating point, per-knob sensitivities and the
// energy/violation Pareto frontier.
//
// Usage:
//
//	optimize -list
//	optimize -study heatwave-setpoint [-strategy grid|cd|cem]
//	         [-scenario name|spec.json] [-workers N] [-seed S] [-out sweep.json]
//
// A sweep is bit-reproducible for any -workers value: every point runs on
// the base scenario's seed and frozen workload, so the -out sweep log is a
// stable artifact (see EXPERIMENTS.md). A hand-written operating point is
// a scenario spec, run with summitsim -scenario.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/whatif"
)

// options carries the parsed flag surface so run is testable.
type options struct {
	list     bool
	study    string
	scenario string // base-scenario override: catalog name or spec file
	strategy string
	workers  int
	seed     uint64
	out      string
}

// validate rejects inconsistent flag combinations before any simulation
// runs, mirroring the config-level validation in sim and whatif.
func (o options) validate() error {
	switch o.strategy {
	case "grid", "cd", "cem":
	default:
		return fmt.Errorf("unknown -strategy %q (grid|cd|cem)", o.strategy)
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", o.workers)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("optimize: ")
	var o options
	flag.BoolVar(&o.list, "list", false, "list the study catalog and exit")
	flag.StringVar(&o.study, "study", "heatwave-setpoint", "catalog study to run (see -list)")
	flag.StringVar(&o.scenario, "scenario", "",
		"override the study's base scenario: a scenario-catalog name or a spec JSON file")
	flag.StringVar(&o.strategy, "strategy", "grid", "search strategy: grid|cd|cem")
	flag.IntVar(&o.workers, "workers", 0, "scenario-level parallelism (0 = all cores)")
	flag.Uint64Var(&o.seed, "seed", 0, "override the study's base seed (0 = keep)")
	flag.StringVar(&o.out, "out", "", "write the machine-readable sweep log to this file")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		log.Fatal(err)
	}
}

// run executes one optimize invocation, writing human output to w.
func run(w io.Writer, o options) error {
	if o.list {
		return listStudies(w)
	}
	if err := o.validate(); err != nil {
		return err
	}
	study, err := whatif.StudyByName(o.study)
	if err != nil {
		return err
	}
	base, err := baseConfig(study, o)
	if err != nil {
		return err
	}
	opt := whatif.Options{Workers: o.workers}
	start := time.Now() //lint:allow determinism wall-clock timing for the progress log only
	var res *whatif.SweepResult
	switch o.strategy {
	case "grid":
		res, err = whatif.RunGrid(base, study.Axes, opt)
	case "cd":
		res, err = whatif.RunCoordinateDescent(base, study.Axes, opt)
	default: // cem — validate() already rejected anything else
		res, err = whatif.RunCEM(base, study.Axes, opt)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start) //lint:allow determinism wall-clock timing for the progress log only
	fmt.Fprintf(w, "study %s (base seed %d)\n%s", study.Name, base.Seed, res.Summary())
	rate := float64(len(res.Evaluated)) / elapsed.Seconds()
	fmt.Fprintf(w, "%d evaluations in %.1fs (%.1f runs/sec)\n",
		len(res.Evaluated), elapsed.Seconds(), rate)
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		if err := res.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "sweep log: %s\n", o.out)
	}
	return nil
}

// baseConfig compiles the sweep's base run the way summitsim compiles a
// run: the study's scenario (or the -scenario name/file override) is looked
// up, -seed overrides the spec's seed, and scenario.Compile builds and
// validates the config — so a seeded trace replay is rebuilt with that seed.
// optimize sits above both planes in the dependency order.
func baseConfig(study whatif.Study, o options) (sim.Config, error) {
	ref := study.Scenario
	if o.scenario != "" {
		ref = o.scenario
	}
	spec, dir, err := scenario.Lookup(ref)
	if err != nil {
		return sim.Config{}, err
	}
	if o.seed != 0 {
		spec.Seed = o.seed
	}
	r, err := scenario.Compile(spec, dir)
	if err != nil {
		return sim.Config{}, err
	}
	return r.Config, nil
}

// listStudies prints the catalog, resolving each study's base scenario for
// its dimensions.
func listStudies(w io.Writer) error {
	for _, s := range whatif.Catalog() {
		points := 1
		for _, ax := range s.Axes {
			points *= len(ax.Values)
		}
		spec, err := scenario.ByName(s.Scenario)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-20s %4d grid points, %d nodes, %s (scenario %s)\n    %s\n",
			s.Name, points, spec.Nodes,
			(time.Duration(spec.DurationSec) * time.Second).String(),
			s.Scenario, s.Description)
	}
	return nil
}
