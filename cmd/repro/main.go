// Command repro regenerates every table and figure of the paper's
// evaluation, printing one report per experiment with the paper's
// full-scale reference values alongside the measured results.
//
// By default it simulates a scaled Summit data center in memory. With
// -data it reads an archive summitsim wrote instead: it prints every report
// of repro.SourceReports (Table 3 and every report that reads a run, the
// same text the in-memory run prints for them). -figdir exports the same
// figure data from either, from the reports' own computation. A fleet root
// is refused: each member directory is an archive of its own. Figure 5's
// year of weekly boxes is a year-long archive read the same way:
//
//	summitsim -nodes 256 -days 366 -q -out DIR && repro -data DIR
//
// A report that fails is named on a "!!" line where it would have printed;
// repro prints everything else and then exits 1. So does a write to the
// output that fails, naming the output.
//
// Usage:
//
//	repro [-nodes N] [-hours H] [-seed S] [-start DAY] [-out report.txt] [-figdir dir] [-powercap]
//	repro -data /path/to/archive [-out report.txt] [-figdir dir]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/render"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/whatif"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro: ")
	if err := cli(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// simFlags shape a simulation; an archive's run is already simulated, so
// they are refused with -data.
var simFlags = []string{"nodes", "hours", "seed", "start", "powercap"}

// output is the one writer every line repro prints goes through. It keeps
// the first write error, after which it writes nothing more.
type output struct {
	w    io.Writer
	name string
	err  error
}

func (o *output) Write(p []byte) (int, error) {
	if o.err != nil {
		return 0, o.err
	}
	n, err := o.w.Write(p)
	if err != nil {
		o.err = fmt.Errorf("writing %s: %w", o.name, err)
	}
	return n, err
}

// cli parses args and prints the reports to stdout, or to -out.
func cli(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("repro", flag.ExitOnError)
	nodes := fs.Int("nodes", 256, "system size in nodes")
	hours := fs.Float64("hours", 12, "simulated span in hours (at least 600 s)")
	seed := fs.Uint64("seed", 2020, "simulation seed")
	startDay := fs.Int("start", 14, "start day of the year 2020, counted from 0 (14 = mid-January, 196 = mid-July)")
	out := fs.String("out", "", "write the report to this file (default stdout)")
	figDir := fs.String("figdir", "", "also export plot-ready CSV data per figure into this directory")
	powercap := fs.Bool("powercap", false,
		"additionally print the §8 power-aware scheduling what-if, the power-cap study of optimize -study power-cap (-nodes, -hours and -seed do not steer it)")
	dataDir := fs.String("data", "", "print the reports from this archive (a summitsim -out directory) instead of simulating")
	if err = fs.Parse(args); err != nil {
		return err
	}
	if *dataDir != "" {
		var given []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(simFlags, f.Name) {
				given = append(given, "-"+f.Name)
			}
		})
		if len(given) > 0 {
			return fmt.Errorf("%s cannot be given with -data: the archive's run is already simulated", strings.Join(given, ", "))
		}
	}

	w := &output{w: stdout, name: "standard output"}
	if *out != "" {
		f, cerr := os.Create(*out)
		if cerr != nil {
			return cerr
		}
		defer func() {
			if cerr := f.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("writing %s: %w", *out, cerr)
			}
		}()
		w = &output{w: f, name: *out}
	}
	// A failed write outranks everything else: what was printed is short.
	defer func() {
		if w.err != nil {
			err = w.err
		}
	}()
	if *dataDir != "" {
		return runArchive(w, *dataDir, *figDir)
	}
	err = run(w, *nodes, *hours, *seed, *startDay, *figDir)
	if err != nil && !errors.Is(err, errReportFailed) {
		return err
	}
	if *powercap {
		rep, err := powerCapReport()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, rep.String())
	}
	return err
}

// powerCapReport renders paper §8's power-aware scheduling what-if: the
// whatif catalog study power-cap, run by whatif.RunGrid on its base
// scenario as optimize -study power-cap runs it. Rows follow the sweep log,
// the uncapped nominal arm first; mean power is IT energy over the span.
func powerCapReport() (repro.Report, error) {
	rep := repro.Report{ID: "section-8", Title: "Power-aware scheduling what-if (study power-cap)",
		PaperRef: "the peak/average gap drives overcooling; power-aware admission can narrow it at a scheduling cost"}
	study, err := whatif.StudyByName("power-cap")
	if err != nil {
		return rep, err
	}
	base, err := scenario.Resolve(study.Scenario)
	if err != nil {
		return rep, err
	}
	res, err := whatif.RunGrid(base.Config, study.Axes, whatif.Options{})
	if err != nil {
		return rep, err
	}
	const kWPerMW = units.WattsPerMW / units.WattsPerKW
	spanH := float64(base.Config.DurationSec) / units.SecondsPerHour
	tab := render.NewTable("cap (kW)", "peak (kW)", "p99 (kW)", "mean (kW)",
		"peak/mean", "mean PUE", "wait (min)", "placed", "skipped", "overcooling (ton-h)")
	for _, r := range res.Evaluated {
		capLabel := "none"
		if mw, ok := r.Scenario.Params[whatif.ParamPowerCapMW]; ok {
			capLabel = fmt.Sprintf("%.0f", mw*kWPerMW)
		}
		meanKW := r.ITEnergyMWh * kWPerMW / spanH
		tab.Row(capLabel, r.PeakPowerMW*kWPerMW, r.P99PowerMW*kWPerMW, meanKW, r.PeakPowerMW*kWPerMW/meanKW,
			r.MeanPUE, r.MeanWaitSec/60, r.JobsPlaced, r.JobsSkipped, r.OvercoolingTonH)
	}
	rep.Body = tab.String()
	return rep, nil
}

// simConfig is the run the simulation flags describe. A size or a span
// sim.Scaled would silently raise is refused, naming its flag.
func simConfig(nodes int, hours float64, seed uint64, startDay int) (repro.Config, error) {
	if nodes <= 0 {
		return repro.Config{}, fmt.Errorf("-nodes %d: want at least 1", nodes)
	}
	span := time.Duration(hours * float64(time.Hour))
	if !units.Finite(hours) || span < sim.MinScaledSpanSec*time.Second {
		return repro.Config{}, fmt.Errorf("-hours %g is below the %d s minimum", hours, sim.MinScaledSpanSec)
	}
	cfg := repro.ScaledConfig(nodes, span)
	cfg.Seed = seed
	cfg.StartTime = 1_577_836_800 + int64(startDay)*86400
	return cfg, nil
}

// run simulates the run the flags describe in memory and prints every
// report.
func run(w io.Writer, nodes int, hours float64, seed uint64, startDay int, figDir string) error {
	cfg, err := simConfig(nodes, hours, seed, startDay)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Summit power/energy/thermal reproduction (SC '21)\n")
	fmt.Fprintf(w, "system: %d nodes, span %.1f h, seed %d, step %d s\n\n",
		cfg.Nodes, float64(cfg.DurationSec)/units.SecondsPerHour, cfg.Seed, cfg.StepSec)

	start := time.Now() //lint:allow determinism wall-clock timing for the progress log only
	data, res, err := core.CollectRun(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "simulated %d windows, %d jobs placed, %d failures injected (%.1fs wall)\n\n",
		res.Steps, len(res.Allocations), len(res.Failures),
		time.Since(start).Seconds()) //lint:allow determinism wall-clock timing for the progress log only
	return printReports(w, data.Source(), figDir)
}

// runArchive prints the reports from the archive in dir.
func runArchive(w io.Writer, dir, figDir string) error {
	if fleet, err := source.DiscoverFleet(dir); err == nil {
		members := make([]string, len(fleet.Clusters))
		for i, e := range fleet.Clusters {
			members[i] = e.Path(dir)
		}
		return fmt.Errorf("%s is a fleet root (%s); give -data one member's directory: %s",
			dir, source.FleetManifestName, strings.Join(members, ", "))
	} else if !errors.Is(err, source.ErrNotFleet) {
		return err
	}
	src, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		return err
	}
	meta, err := src.Meta()
	if err != nil {
		return err
	}
	site := meta.Site
	if site == "" {
		site = topology.SiteSummit
	}
	fmt.Fprintf(w, "Summit power/energy/thermal reproduction (SC '21)\n")
	fmt.Fprintf(w, "archive %s: site %s, %d nodes, span %.1f h, step %d s, start %s\n\n",
		dir, site, meta.Nodes, float64(meta.SpanSec())/units.SecondsPerHour, meta.StepSec,
		time.Unix(meta.StartTime, 0).UTC().Format(time.RFC3339))
	return printReports(w, src, figDir)
}

// errReportFailed marks a run in which some report failed.
var errReportFailed = errors.New("report(s) failed")

// printReports renders every report of repro.SourceReports over src once,
// exports their figure data into figDir (when set), then prints them, in the
// paper's order. It returns errReportFailed, naming them, when any report
// failed.
func printReports(w io.Writer, src source.RunSource, figDir string) error {
	reports := repro.Render(src)
	if figDir != "" {
		files, err := repro.WriteFigureData(figDir, reports)
		if err != nil {
			return fmt.Errorf("export figure data: %w", err)
		}
		fmt.Fprintf(w, "%d figure data files exported to %s\n\n", len(files), figDir)
	}
	var failed []string
	for _, r := range reports {
		if r.Err != nil {
			fmt.Fprintf(w, "!! experiment failed: %s: %v\n\n", r.Report.ID, r.Err)
			failed = append(failed, r.Report.ID)
			continue
		}
		fmt.Fprintln(w, r.Report.String())
	}
	if len(failed) > 0 {
		return fmt.Errorf("%w: %s", errReportFailed, strings.Join(failed, ", "))
	}
	return nil
}
