package main

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/source"
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
		"figure-17", "section-9", "section-6-generations",
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

// blockStart finds the lines that open a report block, a failure or a
// report missing from an archive.
var blockStart = regexp.MustCompile(`(?m)^(== |!! |-- )`)

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
// the run repro simulates prints, with -data, Table 3 and every source
// report byte for byte as the in-memory run does, and names each report an
// archive cannot give instead of printing it.
func TestDataMatchesTheInMemoryRun(t *testing.T) {
	const nodes, hours, seed, startDay = 36, 1.0, 7, 14
	var mem strings.Builder
	if err := run(&mem, nodes, hours, seed, startDay, ""); err != nil {
		t.Fatal(err)
	}
	cfg, err := simConfig(nodes, hours, seed, startDay)
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
	ids := []string{"table-3"}
	for _, r := range repro.SourceReports {
		ids = append(ids, r.ID)
	}
	for _, id := range ids {
		if want[id] == "" || got[id] != want[id] {
			t.Errorf("%s from the archive:\n%s\nin memory:\n%s", id, got[id], want[id])
		}
	}
	if len(got) != len(ids) {
		t.Errorf("-data printed %d report blocks, want %d:\n%s", len(got), len(ids), arc.String())
	}
	for _, r := range runReports {
		if !strings.Contains(arc.String(), "-- "+r.id+" is not in an archive: it "+r.why+"\n") {
			t.Errorf("-data does not name %s as missing:\n%s", r.id, arc.String())
		}
	}
	if header := "archive " + dir + ": site summit, 36 nodes, span 1.0 h, step 10 s, start 2020-01-15T00:00:00Z\n"; !strings.Contains(arc.String(), header) {
		t.Errorf("-data header, want %q:\n%s", header, arc.String())
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
		if name == "year" || name == "powercap" {
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
	if !strings.Contains(out.String(), "!! experiment failed: figure-13: ") || !strings.Contains(out.String(), "== section-6-generations ") {
		t.Errorf("output does not name figure-13 and go on to the last report:\n%s", out.String())
	}
}
