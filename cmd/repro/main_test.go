package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/source"
	"repro/internal/tsagg"
	"repro/internal/units"
	"repro/internal/workload"
)

// The whole-paper harness must run end to end at tiny scale and emit
// every experiment header.
func TestRunEmitsAllExperiments(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 54, 1.0, 7, 14, ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, id := range []string{
		"table-3", "dataset-c", "figure-4", "figure-5", "figure-6",
		"figure-7", "figure-8", "figure-9", "figure-10", "figure-11",
		"figure-12", "section-2-bands", "section-5-overcooling",
		"table-4", "figure-13", "figure-14", "figure-15", "figure-16",
		"figure-17", "section-9",
	} {
		if !strings.Contains(out, "== "+id+" ") {
			t.Errorf("experiment %q missing from harness output", id)
		}
	}
	if strings.Contains(out, "!! experiment failed") {
		t.Errorf("some experiment failed:\n%s", out)
	}
}

// TestRunArchivesData: -figdir exports the plot-ready data beside the
// reports. (Archiving a run's datasets is summitsim's.)
func TestRunArchivesData(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 36, 0.5, 3, 14, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "figure data files exported") {
		t.Error("figure export confirmation missing")
	}
}

// archiveOf simulates cfg and archives it in a fresh directory, as
// summitsim does.
func archiveOf(t *testing.T, cfg repro.Config) string {
	t.Helper()
	data, _, err := core.CollectRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := core.WriteDatasets(dir, data); err != nil {
		t.Fatal(err)
	}
	return dir
}

// blockStart finds the lines that open a report block or a failure.
var blockStart = regexp.MustCompile(`(?m)^(== |!! )`)

// blocks splits repro's output into its report blocks by ID, each from its
// "== ID — " header to the next block's start.
func blocks(out string) map[string]string {
	got := map[string]string{}
	starts := blockStart.FindAllStringIndex(out, -1)
	for i, s := range starts {
		end := len(out)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		if b := out[s[0]:end]; strings.HasPrefix(b, "== ") {
			got[strings.Fields(b)[1]] = b
		}
	}
	return got
}

// TestDataMatchesTheInMemoryRun pins the one report path: the archive of
// the run repro simulates prints, with -data, the same reports — Table 3
// and every report that reads a run — byte for byte as the in-memory run
// does, in January, in July, and over 15 days that cross two of Figure 5's
// week boundaries.
func TestDataMatchesTheInMemoryRun(t *testing.T) {
	for _, c := range dataCases {
		var mem strings.Builder
		if err := run(&mem, c.nodes, c.hours, c.seed, c.startDay, ""); err != nil {
			t.Fatal(err)
		}
		golden(t, c.golden, wallClock.ReplaceAllString(mem.String(), "(- s wall)"))
		cfg, err := simConfig(c.nodes, c.hours, c.seed, c.startDay)
		if err != nil {
			t.Fatal(err)
		}
		dir := archiveOf(t, cfg)
		var arc strings.Builder
		if err := cli([]string{"-data", dir}, &arc); err != nil {
			t.Fatal(err)
		}
		want := blocks(mem.String())
		got := blocks(arc.String())
		var ids []string
		for _, r := range repro.SourceReports {
			ids = append(ids, r.ID)
		}
		if len(ids) != 20 {
			t.Errorf("Table 3 and %d source reports, want the 19 that read a run", len(ids)-1)
		}
		for _, id := range ids {
			if want[id] == "" || got[id] != want[id] {
				t.Errorf("%s: %s from the archive:\n%s\nin memory:\n%s", c.golden, id, got[id], want[id])
			}
		}
		heads := regexp.MustCompile(`(?m)^== .*$`)
		if h := heads.FindAllString(arc.String(), -1); len(h) != len(ids) || !reflect.DeepEqual(h, heads.FindAllString(mem.String(), -1)) {
			t.Errorf("%s: -data printed %d report headings, want the run's %d:\n%s", c.golden, len(h), len(ids), arc.String())
		}
		header := fmt.Sprintf("archive %s: site summit, %d nodes, span %.1f h, step 10 s, start %s\n", dir, c.nodes, c.hours, c.start)
		if !strings.Contains(arc.String(), header) {
			t.Errorf("-data header, want %q:\n%s", header, arc.String())
		}
	}
}

// runFlags are the simulation flags of one run repro's tests simulate.
type runFlags struct {
	nodes    int
	hours    float64
	seed     uint64
	startDay int
}

// weeks is a 15-day run from January 1: Figure 5's weekly loop across weeks
// 0, 1 and 2, the loop a year-long archive prints its 53 weeks with.
var weeks = runFlags{8, 360, 7, 0}

// dataCases are the runs TestDataMatchesTheInMemoryRun archives, each with
// its start as -data prints it and its golden in testdata.
var dataCases = []struct {
	runFlags
	start  string
	golden string
}{
	{runFlags{36, 1.0, 7, 14}, "2020-01-15T00:00:00Z", "repro-day014.txt"},
	{runFlags{36, 1.0, 7, 196}, "2020-07-15T00:00:00Z", "repro-day196.txt"},
	{weeks, "2020-01-01T00:00:00Z", "repro-day000-360h.txt"},
}

// TestFigureDataFromAnArchive: -figdir with -data writes the files the
// in-memory run of the archived config writes, with the same bytes — for a
// half-hour run, whose checksums are pinned, and for weeks, whose
// fig5_cluster_series.csv crosses two week boundaries.
func TestFigureDataFromAnArchive(t *testing.T) {
	for _, c := range []struct {
		runFlags
		sums string
	}{{runFlags{36, 0.5, 3, 14}, "figdata.sha256"}, {weeks, ""}} {
		memDir, arcDir := t.TempDir(), t.TempDir()
		if err := run(io.Discard, c.nodes, c.hours, c.seed, c.startDay, memDir); err != nil {
			t.Fatal(err)
		}
		cfg, err := simConfig(c.nodes, c.hours, c.seed, c.startDay)
		if err != nil {
			t.Fatal(err)
		}
		if err := cli([]string{"-data", archiveOf(t, cfg), "-figdir", arcDir}, io.Discard); err != nil {
			t.Fatal(err)
		}
		want, got := dirFiles(t, memDir), dirFiles(t, arcDir)
		if len(want) < 5 || want["fig5_cluster_series.csv"] == "" || !reflect.DeepEqual(got, want) {
			t.Errorf("%d nodes, %g h: -data -figdir wrote %d files, the run %d, or their bytes differ",
				c.nodes, c.hours, len(got), len(want))
		}
		if c.sums == "" {
			continue
		}
		var names []string
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var sums strings.Builder
		for _, name := range names {
			fmt.Fprintf(&sums, "%x  %s\n", sha256.Sum256([]byte(got[name])), name)
		}
		golden(t, c.sums, sums.String())
	}
}

// wallClock matches the one figure of repro's output that is not a function
// of the run: the simulation's wall time.
var wallClock = regexp.MustCompile(`\([0-9.]+s wall\)`)

// golden compares got with testdata/name, or with UPDATE_GOLDEN=1 writes it
// there. Regenerate intentionally with
//
//	UPDATE_GOLDEN=1 go test ./cmd/repro -run 'TestDataMatchesTheInMemoryRun|TestFigureDataFromAnArchive'
//
// and review the diff like any other change of output.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// dirFiles maps every file in dir to its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(raw)
	}
	return out
}

// TestAnArchiveWithoutTheRunLogs: an archive written before the allocation
// log, the job series and the exemplar frames were archived still prints,
// and each of the five reports that read them fails on its "!!" line naming
// the dataset it lacks.
func TestAnArchiveWithoutTheRunLogs(t *testing.T) {
	dir := archiveOf(t, repro.ScaledConfig(16, time.Hour))
	for _, name := range []string{source.DatasetAllocations, source.DatasetJobSeries, source.DatasetExemplar} {
		if err := os.Remove(filepath.Join(dir, name+"-day00000.spwr")); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	err := cli([]string{"-data", dir}, &out)
	if !errors.Is(err, errReportFailed) {
		t.Fatalf("%v, want errReportFailed", err)
	}
	for _, c := range []struct{ id, dataset string }{
		{"dataset-c", source.DatasetAllocations}, {"figure-10", source.DatasetAllocations},
		{"figure-14", source.DatasetAllocations}, {"figure-17", source.DatasetExemplar},
		{"section-9", source.DatasetAllocations},
	} {
		line := regexp.MustCompile(`(?m)^!! experiment failed: ` + c.id + `: .*$`).FindString(out.String())
		if !strings.Contains(line, `"`+c.dataset+`"`) || !strings.Contains(err.Error(), c.id) {
			t.Errorf("%s: %q, want a failure naming %s", c.id, line, c.dataset)
		}
	}
	if n := strings.Count(out.String(), "!! "); n != 5 {
		t.Errorf("%d reports failed, want 5:\n%s", n, out.String())
	}
}

// TestARunWithoutAJobToPick: a run whose one job starts after the span has
// no exemplar for Figure 17. The run completes, and only figure-17 fails,
// on its "!!" line naming the empty dataset.
func TestARunWithoutAJobToPick(t *testing.T) {
	cfg, err := simConfig(36, 1, 7, 14)
	if err != nil {
		t.Fatal(err)
	}
	late := cfg.StartTime + cfg.DurationSec + 3600
	cfg.Workload = []workload.Job{{ID: 1, User: "u", Project: "p", Class: units.Class5, Nodes: 2,
		SubmitTime: late, WalltimeReq: 3600, Duration: 600}}
	data, _, err := core.CollectRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = printReports(&out, data.Source(), "")
	if !errors.Is(err, errReportFailed) || !strings.HasSuffix(err.Error(), ": figure-17") {
		t.Fatalf("%v, want errReportFailed naming figure-17 alone", err)
	}
	if !strings.Contains(out.String(), "!! experiment failed: figure-17: core: "+source.DatasetExemplar+" holds no frames") {
		t.Errorf("figure-17's failure does not name %s:\n%s", source.DatasetExemplar, out.String())
	}
}

// failingWriter refuses every write after its first n bytes.
type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errors.New("device full")
	}
	f.n -= len(p)
	return len(p), nil
}

// TestAFailedWriteIsAnError: output that cannot be written fails the run,
// naming the output, however much of it was written.
func TestAFailedWriteIsAnError(t *testing.T) {
	dir := archiveOf(t, repro.ScaledConfig(16, time.Hour))
	for _, n := range []int{0, 500} {
		err := cli([]string{"-data", dir}, &failingWriter{n: n})
		if err == nil || !strings.Contains(err.Error(), "writing standard output") || !strings.Contains(err.Error(), "device full") {
			t.Errorf("after %d bytes: %v, want the write error naming standard output", n, err)
		}
	}
}

// TestDataRefusals: -data refuses a fleet root, naming fleet.json and its
// members, a directory that holds no archive, and every simulation flag
// given with it, each before printing a line.
func TestDataRefusals(t *testing.T) {
	fleet := t.TempDir()
	if err := source.WriteFleetManifest(fleet, source.FleetManifest{Clusters: []source.FleetEntry{
		{Name: "summit-0", Dir: "summit-0"}, {Name: "frontier-1", Dir: "frontier-1"},
	}}); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "nothing-here")
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"-data", fleet}, []string{"fleet.json", filepath.Join(fleet, "summit-0"), filepath.Join(fleet, "frontier-1")}},
		{[]string{"-data", missing}, []string{missing}},
	}
	for _, name := range simFlags {
		value := "1"
		if name == "powercap" {
			value = "true"
		}
		cases = append(cases, struct {
			args []string
			want []string
		}{[]string{"-data", fleet, "-" + name + "=" + value}, []string{"-" + name + " cannot be given with -data"}})
	}
	for _, c := range cases {
		var out strings.Builder
		err := cli(c.args, &out)
		if err == nil || out.Len() != 0 {
			t.Errorf("%q: %v, printing %q; want a refusal and no output", c.args, err, out.String())
			continue
		}
		for _, want := range c.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%q: %v, want it to name %q", c.args, err, want)
			}
		}
	}
}

// TestRefusesAnArchiveWithoutRunMeta: with its run-meta deleted, a 16-node
// archive is refused, naming the directory, before a line is printed —
// never analyzed on a guessed system size, which put the edge threshold at
// 256 nodes' 0.22 MW.
func TestRefusesAnArchiveWithoutRunMeta(t *testing.T) {
	dir := archiveOf(t, repro.ScaledConfig(16, time.Hour))
	if err := os.Remove(filepath.Join(dir, "run-meta-day00000.spwr")); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := cli([]string{"-data", dir}, &out)
	if err == nil || !strings.Contains(err.Error(), dir) || out.Len() != 0 {
		t.Errorf("%v, printing %q; want a refusal naming %s and no output", err, out.String(), dir)
	}
}

// TestSizeFlagsAreChecked: a size or span sim.Scaled would silently raise
// is refused before any work, naming the flag; the header states the span
// simulated.
func TestSizeFlagsAreChecked(t *testing.T) {
	for _, c := range []struct {
		nodes int
		hours float64
		want  string
	}{
		{0, 1, "-nodes 0"}, {-3, 1, "-nodes -3"},
		{16, -1, "-hours -1 is below the 600 s minimum"},
		{16, 0, "-hours 0 is below"}, {16, 0.05, "-hours 0.05 is below"}, {16, math.NaN(), "-hours NaN"},
	} {
		var out strings.Builder
		err := run(&out, c.nodes, c.hours, 1, 14, "")
		if err == nil || !strings.Contains(err.Error(), c.want) || out.Len() != 0 {
			t.Errorf("nodes %d, hours %g: %v, printing %q; want a refusal containing %q", c.nodes, c.hours, err, out.String(), c.want)
		}
	}
	cfg, err := simConfig(16, 600.0/3600, 1, 14)
	if err != nil || cfg.DurationSec != 600 {
		t.Errorf("600 s: %+v, %v", cfg.DurationSec, err)
	}
}

// TestAFailedReportIsNamed: a one-node run has too few failures for
// Figure 13's correlation. Its "!!" line names the report, everything else
// still prints, and the run fails naming it.
func TestAFailedReportIsNamed(t *testing.T) {
	var out strings.Builder
	err := run(&out, 1, 0.17, 2020, 14, "")
	if !errors.Is(err, errReportFailed) || !strings.Contains(err.Error(), "figure-13") {
		t.Fatalf("%v, want errReportFailed naming figure-13", err)
	}
	if !strings.Contains(out.String(), "!! experiment failed: figure-13: ") || !strings.Contains(out.String(), "== section-9 ") {
		t.Errorf("output does not name figure-13 and go on to the last report:\n%s", out.String())
	}
}

// countingSource counts the calls of each RunSource method.
type countingSource struct {
	source.RunSource
	mu    sync.Mutex
	calls map[string]int
}

func (c *countingSource) count(method string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls[method]++
}

func (c *countingSource) Meta() (source.Meta, error) {
	c.count("Meta")
	return c.RunSource.Meta()
}

func (c *countingSource) Series(name string) (*tsagg.Series, error) {
	c.count("Series " + name)
	return c.RunSource.Series(name)
}

func (c *countingSource) JobRecords() ([]source.JobRecord, error) {
	c.count("JobRecords")
	return c.RunSource.JobRecords()
}

func (c *countingSource) Failures() ([]failures.Event, error) {
	c.count("Failures")
	return c.RunSource.Failures()
}

func (c *countingSource) Allocations() ([]source.Allocation, error) {
	c.count("Allocations")
	return c.RunSource.Allocations()
}

func (c *countingSource) JobPower() ([]source.JobWindow, error) {
	c.count("JobPower")
	return c.RunSource.JobPower()
}

func (c *countingSource) ExemplarGPUs() ([]source.GPUSample, error) {
	c.count("ExemplarGPUs")
	return c.RunSource.ExemplarGPUs()
}

// TestReportsAreComputedOnce: -figdir writes the figure data from the
// reports' own computation, so the run is read exactly as often with it as
// without it.
func TestReportsAreComputedOnce(t *testing.T) {
	cfg, err := simConfig(36, 1, 7, 14)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := core.CollectRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	text := &countingSource{RunSource: data.Source(), calls: map[string]int{}}
	if err := printReports(io.Discard, text, ""); err != nil {
		t.Fatal(err)
	}
	figs := &countingSource{RunSource: data.Source(), calls: map[string]int{}}
	if err := printReports(io.Discard, figs, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(figs.calls, text.calls) {
		t.Errorf("reads with -figdir %v, without %v", figs.calls, text.calls)
	}
}

// TestPowerCapRenders: -powercap prints the power-cap study's sweep, one
// row per arm in the sweep log's order, the uncapped nominal arm first.
func TestPowerCapRenders(t *testing.T) {
	rep, err := powerCapReport()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(rep.Body), "\n")
	if rep.ID != "section-8" || len(lines) != 6 || !strings.HasPrefix(lines[0], "cap (kW)") {
		t.Fatalf("section-8 want a header, a rule and four arms:\n%s", rep.Body)
	}
	for i, cap := range []string{"none", "102", "116", "131"} {
		if f := strings.Fields(lines[2+i]); f[0] != cap || len(f) != 10 {
			t.Errorf("row %d = %q, want cap %s and ten columns", i, lines[2+i], cap)
		}
	}
}
