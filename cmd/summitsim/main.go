// Command summitsim runs the Summit digital twin for a configurable span
// and archives the resulting telemetry, job and failure datasets in the
// daily-partitioned columnar format (the reproduction's equivalent of the
// paper's 8.5 TB/year archive, at configurable scale).
//
// Every run is a declarative scenario (internal/scenario). Without
// -scenario it is the calibrated generator spec the flag defaults describe;
// with -scenario it is that catalog entry or spec file. Each of -nodes,
// -days, -seed, -setpoint, -placement and -powercap-mw given on the command
// line then overrides one field of the spec. Beside the datasets every run
// directory gets scenario.json (the spec and its identity) and report.json
// (the run's objective report).
//
// With -clusters N (N >= 2) it simulates a heterogeneous fleet instead: N
// independently-seeded clusters cycling through the -sites presets, archived
// as one fleet root (out/<cluster>/ per member plus a fleet.json manifest)
// that queryd serves directly; each member directory is an archive of its
// own, which repro -data reads.
//
// -fsck DIR runs nothing: it decodes every partition of the archive DIR (of
// every member, for a fleet root) in full and checks its run-meta, and exits
// 1 if any is damaged — opening an archive reads partition headers only, so
// this is the check of the bodies. It takes no other flag.
//
// Usage:
//
//	summitsim -out /path/to/archive [-nodes N] [-days D] [-seed S]
//	summitsim -out /path/to/archive -scenario heatwave-summer [-nodes N]
//	summitsim -out /path/to/fleet -clusters 2 [-sites summit,frontier]
//	summitsim -fsck /path/to/archive-or-fleet
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/whatif"
)

// options is the parsed flag set; set names the flags given on the command
// line.
type options struct {
	scenario  string
	nodes     int
	days      float64
	seed      uint64
	setpoint  float64
	placement string
	capMW     float64
	clusters  int
	sites     string
	out       string
	nodeData  bool
	quiet     bool
	set       map[string]bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("summitsim: ")
	var o options
	flag.StringVar(&o.scenario, "scenario", "",
		"start from a declarative scenario (catalog name or spec file); the run flags given override its fields")
	flag.IntVar(&o.nodes, "nodes", 256, "system size in nodes (per cluster)")
	flag.Float64Var(&o.days, "days", 1, "simulated span in days (at least 600 s)")
	flag.Uint64Var(&o.seed, "seed", 2020,
		"simulation seed; 0 means the calibrated 2020, as in a spec (fleet members derive per-cluster seeds)")
	flag.IntVar(&o.clusters, "clusters", 1, "number of clusters; >= 2 archives a fleet root with a manifest")
	flag.StringVar(&o.sites, "sites", "summit", "comma-separated site presets cycled across fleet members")
	flag.StringVar(&o.out, "out", "", "archive directory (required)")
	flag.Float64Var(&o.setpoint, "setpoint", 0, "MTW supply setpoint override in °C (0 = model default)")
	flag.StringVar(&o.placement, "placement", "", "scheduler placement policy: contiguous|packed|scatter")
	flag.Float64Var(&o.capMW, "powercap-mw", 0, "cluster power cap in MW (0 = uncapped)")
	flag.BoolVar(&o.nodeData, "nodedata", false, "also archive per-node window statistics (Dataset 0; large)")
	flag.BoolVar(&o.quiet, "q", false, "suppress progress output")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	fsckDir := flag.String("fsck", "", "check every partition of this archive or fleet root, run nothing, exit 1 on any problem")
	flag.Parse()
	o.set = map[string]bool{}
	var others []string
	flag.Visit(func(f *flag.Flag) {
		o.set[f.Name] = true
		if f.Name != "fsck" {
			others = append(others, "-"+f.Name)
		}
	})
	if *fsckDir != "" {
		if len(others) > 0 {
			log.Fatalf("%s cannot be given with -fsck", strings.Join(others, ", "))
		}
		if err := fsck(os.Stdout, *fsckDir); err != nil {
			log.Fatal(err)
		}
		return
	}
	if o.out == "" {
		flag.Usage()
		os.Exit(2)
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
			runtime.GC() // the profile is as of the last GC: make that now
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}()
	}
	if err := run(os.Stdout, o); err != nil {
		log.Fatal(err)
	}
}

// resolve compiles the run o describes: the -scenario spec, or the generator
// spec the flag defaults describe, with each run flag the user gave written
// over its field. It also returns the directory trace paths resolve against.
func resolve(o options) (*scenario.Resolved, string, error) {
	spec := scenario.Spec{Version: scenario.Version, Name: "summitsim"}
	dir := ""
	if o.scenario != "" {
		var err error
		if spec, dir, err = scenario.Lookup(o.scenario); err != nil {
			return nil, "", err
		}
	}
	given := func(name string) bool { return o.scenario == "" || o.set[name] }
	if given("nodes") {
		spec.Nodes = o.nodes
	}
	if given("days") {
		spec.DurationSec = int64(math.Round(o.days * 86400))
	}
	if given("seed") {
		spec.Seed = o.seed
	}
	if given("setpoint") {
		spec.Tuning.SupplySetpointC = o.setpoint
	}
	if given("placement") {
		spec.Placement = o.placement
	}
	if given("powercap-mw") {
		spec.PowerCapMW = o.capMW
	}
	r, err := scenario.Compile(spec, dir)
	return r, dir, err
}

// member is one cluster of a run: its compiled scenario, the directory it
// is archived into, and its fleet name ("" for a run of one cluster, which
// keeps the spec's own identity and writes into -out itself).
type member struct {
	r    *scenario.Resolved
	dir  string
	name string
}

// members resolves the clusters of the run o describes. One cluster is the
// base run in o.out. A fleet's member i is compiled from the base spec with
// the i-th -sites preset (cycled) and a seed derived from the base seed,
// named <site>-<i>, under o.out/<name>/, and listed in the fleet manifest.
func members(base *scenario.Resolved, dir string, o options) ([]member, source.FleetManifest, error) {
	var manifest source.FleetManifest
	if o.clusters == 1 {
		return []member{{r: base, dir: o.out}}, manifest, nil
	}
	siteList := strings.Split(o.sites, ",")
	ms := make([]member, o.clusters)
	for i := range ms {
		site := strings.TrimSpace(siteList[i%len(siteList)])
		if site == "" {
			return nil, manifest, fmt.Errorf("empty site name in -sites %q", o.sites)
		}
		spec := base.Spec
		spec.Site = site
		spec.Seed = sim.DeriveSeed(base.Config.Seed, i)
		r, err := scenario.Compile(spec, dir)
		if err != nil {
			return nil, manifest, err
		}
		name := fmt.Sprintf("%s-%d", site, i)
		r.Config.Cluster = name
		ms[i] = member{r: r, dir: filepath.Join(o.out, name), name: name}
		manifest.Clusters = append(manifest.Clusters, source.FleetEntry{
			Name: name, Site: site, Nodes: r.Config.Nodes, Dir: name,
		})
	}
	return ms, manifest, nil
}

// run simulates the run o describes and archives it, writing progress to
// w. Every member is simulated at once (core.CollectFleet), its node-power
// writer, with -nodedata, closed by the run; then each is archived in turn
// into its own directory, and a fleet root also gets fleet.json. A run that
// fails, a node-power flush included, writes nothing more.
func run(w io.Writer, o options) error {
	if o.clusters < 1 {
		return fmt.Errorf("-clusters must be >= 1, got %d", o.clusters)
	}
	base, dir, err := resolve(o)
	if err != nil {
		return err
	}
	ms, manifest, err := members(base, dir, o)
	if err != nil {
		return err
	}
	if len(ms) == 1 && !o.quiet {
		fmt.Fprintf(w, "scenario %s (hash %s, run seed %d)\n", base.Spec.Name, base.Identity(), base.Seed)
	}
	dirs := make([]string, len(ms))
	cfgs := make([]sim.Config, len(ms))
	extra := make([][]sim.Observer, len(ms))
	for i, m := range ms {
		dirs[i], cfgs[i] = m.dir, m.r.Config
		if o.nodeData {
			n, err := core.NewNodeDatasetWriter(m.dir, cfgs[i].Nodes, cfgs[i].Site)
			if err != nil {
				return err
			}
			extra[i] = []sim.Observer{n}
		}
	}
	if err := source.BeginArchive(base.Config.DurationSec, source.RunDatasets(o.nodeData), dirs...); err != nil {
		return err
	}
	start := time.Now() //lint:allow determinism wall-clock timing for the progress log only
	runs, err := core.CollectFleet(cfgs, 0, func(i int) []sim.Observer { return extra[i] })
	if err != nil {
		return err
	}
	for i, m := range ms {
		res := runs[i].Result
		if !o.quiet {
			line := fmt.Sprintf("simulated %d windows on %d nodes: %d jobs, %d failures, utilization %.1f%%",
				res.Steps, cfgs[i].Nodes, len(res.Allocations), len(res.Failures), res.Utilization*100)
			if m.name == "" {
				fmt.Fprintf(w, "%s (%.1fs)\n", line, time.Since(start).Seconds()) //lint:allow determinism wall-clock timing for the progress log only
			} else {
				fmt.Fprintf(w, "%-12s %s\n", m.name, line)
			}
		}
		if err := archiveRun(w, m, runs[i].Data, o); err != nil {
			return err
		}
	}
	if len(ms) == 1 {
		return nil
	}
	if err := source.WriteFleetManifest(o.out, manifest); err != nil {
		return err
	}
	if !o.quiet {
		fmt.Fprintf(w, "fleet of %d cluster(s) archived in %s (%.1fs)\n", len(ms), o.out, time.Since(start).Seconds()) //lint:allow determinism wall-clock timing for the progress log only
	}
	return nil
}

// archiveRun writes member m's datasets, scenario.json and report.json into
// its directory, then reports the per-dataset footprint, each line labelled
// with the member's fleet name.
func archiveRun(w io.Writer, m member, data *core.RunData, o options) error {
	if err := core.WriteDatasets(m.dir, data); err != nil {
		return err
	}
	// Provenance goes last, so a run refused above leaves the previous
	// run's record beside the previous run's datasets.
	rep, err := m.r.Assess(data.Source())
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(m.dir, "scenario.json"), m.r.Manifest()); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(m.dir, "report.json"), rep); err != nil {
		return err
	}
	if o.quiet {
		return nil
	}
	if m.name == "" {
		printReport(w, rep)
	}
	// Report archive footprint per dataset (the paper tracks this
	// closely: compression made the full-scale archive practical).
	for _, name := range source.RunDatasets(o.nodeData) {
		ds, err := store.NewDataset(m.dir, name)
		if err != nil {
			return err
		}
		size, err := ds.SizeOnDisk()
		if err != nil {
			return err
		}
		days, _ := ds.Days()
		if m.name != "" {
			fmt.Fprintf(w, "%-12s ", m.name)
		}
		fmt.Fprintf(w, "dataset %-14s %3d partition(s) %8.1f KiB\n", name, len(days), float64(size)/1024)
	}
	return nil
}

// printReport renders the objective block of one report.
func printReport(w io.Writer, rep whatif.Report) {
	fmt.Fprintf(w, "mean PUE %.4f, IT %.3f MWh, total %.3f MWh\n",
		rep.MeanPUE, rep.ITEnergyMWh, rep.TotalEnergyMWh)
	fmt.Fprintf(w, "violation %.0f s (%.0f GPU·s), overcooling %.1f ton·h\n",
		rep.ViolationSec, rep.ViolationGPUSec, rep.OvercoolingTonH)
	fmt.Fprintf(w, "%d failures, %d jobs completed, utilization %.1f%%, score %.3f\n",
		rep.Failures, rep.JobsCompleted, rep.Utilization*100, rep.Score)
}

// writeJSON writes v to path as indented JSON with a trailing newline.
func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
