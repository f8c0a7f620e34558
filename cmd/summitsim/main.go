// Command summitsim runs the Summit digital twin for a configurable span
// and archives the resulting telemetry, job and failure datasets in the
// daily-partitioned columnar format (the reproduction's equivalent of the
// paper's 8.5 TB/year archive, at configurable scale).
//
// With -clusters N (N >= 2) it simulates a heterogeneous fleet instead: N
// independently-seeded clusters cycling through the -sites presets, archived
// as one fleet root (out/<cluster>/ per member plus a fleet.json manifest)
// that queryd and analyze consume directly.
//
// Usage:
//
//	summitsim -out /path/to/archive [-nodes N] [-days D] [-seed S]
//	summitsim -out /path/to/archive -scenario heatwave-summer
//	summitsim -out /path/to/fleet -clusters 2 [-sites summit,frontier]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("summitsim: ")
	scenarioRef := flag.String("scenario", "",
		"run a declarative scenario (catalog name or spec file) instead of building the config from flags")
	nodes := flag.Int("nodes", 256, "system size in nodes (per cluster)")
	days := flag.Float64("days", 1, "simulated span in days")
	seed := flag.Uint64("seed", 2020, "simulation seed (fleet members derive per-cluster seeds)")
	clusters := flag.Int("clusters", 1, "number of clusters; >= 2 archives a fleet root with a manifest")
	sites := flag.String("sites", "summit", "comma-separated site presets cycled across fleet members")
	out := flag.String("out", "", "archive directory (required)")
	setpoint := flag.Float64("setpoint", 0, "MTW supply setpoint override in °C (0 = model default)")
	placement := flag.String("placement", "", "scheduler placement policy: contiguous|packed|scatter")
	capMW := flag.Float64("powercap-mw", 0, "cluster power cap in MW (0 = uncapped)")
	nodeData := flag.Bool("nodedata", false, "also archive per-node window statistics (Dataset 0; large)")
	jobSeries := flag.Bool("jobseries", false, "also archive per-job time series (Datasets 3/4/10/11)")
	quiet := flag.Bool("q", false, "suppress progress output")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *scenarioRef != "" {
		// A scenario is a complete run description: every flag that would
		// also shape the config conflicts rather than silently losing.
		var conflicts []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "nodes", "days", "seed", "setpoint", "placement", "powercap-mw", "clusters", "sites":
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			log.Fatalf("-scenario describes the full run config; drop %s", strings.Join(conflicts, ", "))
		}
	}
	if err := validateSize(*nodes, *days); err != nil {
		log.Fatal(err)
	}
	if *clusters < 1 {
		log.Fatalf("-clusters must be >= 1, got %d", *clusters)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.Start(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			trace.Stop()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}()
	}
	var cfg repro.Config
	if *scenarioRef != "" {
		r, err := scenario.Resolve(*scenarioRef)
		if err != nil {
			log.Fatal(err)
		}
		cfg = r.Config
		if !*quiet {
			fmt.Printf("scenario %s (hash %s, run seed %d)\n", r.Spec.Name, r.Identity(), r.Seed)
		}
	} else {
		cfg = repro.ScaledConfig(*nodes, time.Duration(*days*24*float64(time.Hour)))
		cfg.Seed = *seed
		if *capMW < 0 {
			log.Fatalf("-powercap-mw must be >= 0, got %g", *capMW)
		}
		cfg.Plant.SupplySetpointC = *setpoint
		cfg.Placement = *placement
		cfg.PowerCap = units.Watts(*capMW * units.WattsPerMW)
		// The knob surface shares sim.Config's validation: a bad setpoint,
		// placement name or cap fails here with the same wrapped errors the
		// what-if plane reports.
		if err := cfg.Validate(); err != nil {
			log.Fatal(err)
		}
	}
	if *clusters >= 2 {
		if err := runFleet(cfg, *clusters, *sites, *out, *nodeData, *jobSeries, *quiet); err != nil {
			log.Fatal(err)
		}
		return
	}
	start := time.Now() //lint:allow determinism wall-clock timing for the progress log only
	var attach []core.Attach
	if *nodeData {
		attach = append(attach, core.AttachNodeDataset(*out))
	}
	data, res, err := core.CollectRun(cfg, attach...)
	if err != nil {
		log.Fatal(err)
	}
	if !*quiet {
		fmt.Printf("simulated %d windows on %d nodes: %d jobs, %d failures, utilization %.1f%% (%.1fs)\n",
			res.Steps, cfg.Nodes, len(res.Allocations), len(res.Failures),
			res.Utilization*100, time.Since(start).Seconds()) //lint:allow determinism wall-clock timing for the progress log only
	}
	if err := archiveRun(*out, "", data, *nodeData, *jobSeries, *quiet); err != nil {
		log.Fatal(err)
	}
}

// runFleet simulates n independently-seeded clusters sharing the base
// config's knobs (size, span, setpoint, placement, cap) and archives them
// as a fleet root: out/<cluster>/ per member plus fleet.json.
func runFleet(base repro.Config, n int, sites, out string, nodeData, jobSeries, quiet bool) error {
	siteList := strings.Split(sites, ",")
	var manifest source.FleetManifest
	cfgs := make([]repro.Config, n)
	names := make([]string, n)
	for i := range cfgs {
		site := strings.TrimSpace(siteList[i%len(siteList)])
		if site == "" {
			return fmt.Errorf("empty site name in -sites %q", sites)
		}
		name := fmt.Sprintf("%s-%d", site, i)
		cfg := base
		cfg.Seed = sim.DeriveSeed(base.Seed, i)
		cfg.Cluster = name
		cfg.Site = site
		cfgs[i] = cfg
		names[i] = name
		manifest.Clusters = append(manifest.Clusters, source.FleetEntry{
			Name: name, Site: site, Nodes: cfg.Nodes, Dir: name,
		})
	}
	var dirFor func(i int) string
	if nodeData {
		dirFor = func(i int) string { return filepath.Join(out, names[i]) }
	}
	start := time.Now() //lint:allow determinism wall-clock timing for the progress log only
	runs, err := core.CollectFleet(cfgs, 0, dirFor)
	if err != nil {
		return err
	}
	for i, run := range runs {
		if !quiet {
			fmt.Printf("%-12s simulated %d windows on %d nodes: %d jobs, %d failures, utilization %.1f%%\n",
				names[i], run.Result.Steps, cfgs[i].Nodes, len(run.Result.Allocations),
				len(run.Result.Failures), run.Result.Utilization*100)
		}
		if err := archiveRun(filepath.Join(out, names[i]), names[i], run.Data, nodeData, jobSeries, quiet); err != nil {
			return err
		}
	}
	if err := source.WriteFleetManifest(out, manifest); err != nil {
		return err
	}
	if !quiet {
		fmt.Printf("fleet of %d cluster(s) archived in %s (%.1fs)\n", n, out, time.Since(start).Seconds()) //lint:allow determinism wall-clock timing for the progress log only
	}
	return nil
}

// archiveRun writes one run's datasets, scheduler CSV logs and per-dataset
// footprint report into dir. prefix labels report lines in fleet mode.
func archiveRun(dir, prefix string, data *repro.RunData, nodeData, jobSeries, quiet bool) error {
	if err := core.WriteDatasets(dir, data); err != nil {
		return err
	}
	if jobSeries {
		if err := core.WriteJobSeriesDataset(dir, data); err != nil {
			return err
		}
	}
	// Job scheduler logs (Datasets C and D) as CSV for external tooling.
	if err := writeCSV(filepath.Join(dir, "allocations.csv"), func(w io.Writer) error {
		return core.WriteAllocationCSV(w, data)
	}); err != nil {
		return err
	}
	if err := writeCSV(filepath.Join(dir, "allocations-per-node.csv"), func(w io.Writer) error {
		return core.WritePerNodeCSV(w, data)
	}); err != nil {
		return err
	}
	// Report archive footprint per dataset (the paper tracks this
	// closely: compression made the full-scale archive practical).
	names := []string{source.DatasetClusterPower, source.DatasetJobRecords, source.DatasetFailures}
	if nodeData {
		names = append(names, core.DatasetNodePower)
	}
	if jobSeries {
		names = append(names, core.DatasetJobSeries)
	}
	for _, name := range names {
		ds, err := store.NewDataset(dir, name)
		if err != nil {
			return err
		}
		size, err := ds.SizeOnDisk()
		if err != nil {
			return err
		}
		days, _ := ds.Days()
		if quiet {
			continue
		}
		if prefix != "" {
			fmt.Printf("%-12s dataset %-14s %3d partition(s) %8.1f KiB\n",
				prefix, name, len(days), float64(size)/1024)
		} else {
			fmt.Printf("dataset %-14s %3d partition(s) %8.1f KiB\n",
				name, len(days), float64(size)/1024)
		}
	}
	return nil
}

// validateSize rejects nonsense run dimensions up front: ScaledConfig
// would silently clamp a non-positive span to 600 s, archiving a run the
// caller never asked for.
func validateSize(nodes int, days float64) error {
	if nodes <= 0 {
		return fmt.Errorf("-nodes must be positive, got %d", nodes)
	}
	if days <= 0 {
		return fmt.Errorf("-days must be positive, got %g", days)
	}
	return nil
}

// writeCSV creates path and streams fn's output into it.
func writeCSV(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
