// Command repro regenerates every table and figure of the paper's
// evaluation from a scaled simulation of the Summit data center, printing
// one report per experiment with the paper's full-scale reference values
// alongside the measured results.
//
// Usage:
//
//	repro [-nodes N] [-hours H] [-seed S] [-out report.txt] [-figdir dir]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro: ")
	nodes := flag.Int("nodes", 256, "system size in nodes")
	hours := flag.Float64("hours", 12, "simulated span in hours")
	seed := flag.Uint64("seed", 2020, "simulation seed")
	startDay := flag.Int("start", 14, "start day-of-year within 2020 (14 = mid-January, 196 = mid-July)")
	out := flag.String("out", "", "write the report to this file (default stdout)")
	figDir := flag.String("figdir", "", "also export plot-ready CSV data per figure into this directory")
	year := flag.Bool("year", false, "additionally run the sampled-year seasonal survey (12 parallel monthly sims)")
	powercap := flag.Bool("powercap", false, "additionally run the power-aware scheduling what-if")
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := run(w, *nodes, *hours, *seed, *startDay, *figDir); err != nil {
		log.Fatal(err)
	}
	if *year {
		rep, err := repro.ReportYearSurvey(*nodes, *seed, 3*time.Hour, 60)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(w, rep.String())
	}
	if *powercap {
		cfg := repro.ScaledConfig(*nodes, time.Duration(*hours*float64(time.Hour)))
		cfg.Seed = *seed
		rep, err := repro.ReportPowerCap(cfg, []float64{0.9, 0.8, 0.7})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(w, rep.String())
	}
}

func run(w io.Writer, nodes int, hours float64, seed uint64, startDay int, figDir string) error {
	cfg := repro.ScaledConfig(nodes, time.Duration(hours*float64(time.Hour)))
	cfg.Seed = seed
	cfg.StartTime = 1_577_836_800 + int64(startDay)*86400
	fmt.Fprintf(w, "Summit power/energy/thermal reproduction (SC '21)\n")
	fmt.Fprintf(w, "system: %d nodes, span %.1f h, seed %d, step %d s\n\n",
		cfg.Nodes, hours, cfg.Seed, cfg.StepSec)

	start := time.Now() //lint:allow determinism wall-clock timing for the progress log only
	var vc *core.VariabilityCollector
	data, res, err := core.CollectRun(cfg, core.AttachVariability(&vc))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "simulated %d windows, %d jobs placed, %d failures injected, utilization %.1f%% (%.1fs wall)\n\n",
		res.Steps, len(res.Allocations), len(res.Failures),
		res.Utilization*100, time.Since(start).Seconds()) //lint:allow determinism wall-clock timing for the progress log only

	if figDir != "" {
		files, err := repro.WriteFigureData(figDir, data, vc)
		if err != nil {
			return fmt.Errorf("export figure data: %w", err)
		}
		fmt.Fprintf(w, "%d figure data files exported to %s\n\n", len(files), figDir)
	}

	src := data.Source()
	reports := []func() (repro.Report, error){
		func() (repro.Report, error) { return repro.ReportTable3(), nil },
		func() (repro.Report, error) { return repro.ReportScheduling(data), nil },
		func() (repro.Report, error) { return repro.ReportFigure4(src) },
		func() (repro.Report, error) { return repro.ReportFigure5(src) },
		func() (repro.Report, error) { return repro.ReportFigure6(src) },
		func() (repro.Report, error) { return repro.ReportFigure7(src) },
		func() (repro.Report, error) { return repro.ReportFigure8(src) },
		func() (repro.Report, error) { return repro.ReportFigure9(src) },
		func() (repro.Report, error) { return repro.ReportFigure10(data), nil },
		func() (repro.Report, error) { return repro.ReportFigure11(src) },
		func() (repro.Report, error) { return repro.ReportFigure12(src) },
		func() (repro.Report, error) { return repro.ReportThermalBands(src) },
		func() (repro.Report, error) { return repro.ReportOvercooling(src) },
		func() (repro.Report, error) { return repro.ReportTable4(src) },
		func() (repro.Report, error) { return repro.ReportFigure13(src) },
		func() (repro.Report, error) { return repro.ReportFigure14(data), nil },
		func() (repro.Report, error) { return repro.ReportFigure15(src) },
		func() (repro.Report, error) { return repro.ReportFigure16(src) },
		func() (repro.Report, error) { return repro.ReportFigure17(vc) },
		func() (repro.Report, error) { return repro.ReportFingerprints(data) },
		func() (repro.Report, error) { return repro.ReportGenerations(seed) },
	}
	for _, fn := range reports {
		rep, err := fn()
		if err != nil {
			fmt.Fprintf(w, "!! experiment failed: %v\n\n", err)
			continue
		}
		fmt.Fprintln(w, rep.String())
	}
	return nil
}
