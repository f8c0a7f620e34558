package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/source"
	"repro/internal/whatif"
)

// TestValidateSize checks the run dimensions on the flag → spec path:
// scenario.Compile rejects them, including a span sim.Scaled would
// otherwise raise to 600 s.
func TestValidateSize(t *testing.T) {
	cases := []struct {
		nodes int
		days  float64
		want  string // substring of the error; "" means accept
	}{
		{256, 1, ""},
		{1, 0.01, ""},
		{0, 1, "non-positive nodes"},
		{-4, 1, "non-positive nodes"},
		{256, 0, "duration_sec 0 below the 600 s minimum"},
		{256, -0.5, "below the 600 s minimum"},
		{256, 0.001, "duration_sec 86 below the 600 s minimum"},
	}
	for _, c := range cases {
		_, _, err := resolve(options{nodes: c.nodes, days: c.days, seed: 2020})
		if c.want == "" {
			if err != nil {
				t.Errorf("nodes %d, days %g: %v, want nil", c.nodes, c.days, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("nodes %d, days %g: %v, want error containing %q", c.nodes, c.days, err, c.want)
		}
	}
}

// TestFlagsAreASpec pins that a flag-built run compiles to
// repro.ScaledConfig + seed + Validate (so flag-built archives keep their
// bytes), that -seed 0 is a spec's seed 0, and that a flag given with
// -scenario overrides only its field.
func TestFlagsAreASpec(t *testing.T) {
	for _, c := range []struct {
		nodes int
		days  float64
		seed  uint64
	}{{160, 1, 8}, {64, 4, 2}, {32, 0.25, 2020}, {36, 2, 2020}, {16, 1, 7}} {
		r, _, err := resolve(options{nodes: c.nodes, days: c.days, seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		want := repro.ScaledConfig(c.nodes, time.Duration(c.days*24*float64(time.Hour)))
		want.Seed = c.seed
		if err := want.Validate(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Config, want) {
			t.Errorf("%d nodes × %g days: compiled config\n%+v\nwant\n%+v", c.nodes, c.days, r.Config, want)
		}
	}

	r, _, err := resolve(options{nodes: 16, days: 1, seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Config.Seed != 2020 {
		t.Errorf("-seed 0 ran seed %d, want the calibrated 2020", r.Config.Seed)
	}

	cat, err := scenario.Resolve("heatwave-summer")
	if err != nil {
		t.Fatal(err)
	}
	r, _, err = resolve(options{scenario: "heatwave-summer", nodes: 32, days: 1, seed: 2020,
		set: map[string]bool{"nodes": true}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Config.Nodes != 32 || r.Spec.Weather != cat.Spec.Weather || r.Config.StartTime != cat.Config.StartTime ||
		r.Config.DurationSec != cat.Config.DurationSec {
		t.Errorf("-nodes 32 over heatwave-summer: %d nodes, weather %q, start %d, span %d s; want 32, %q, %d, %d s",
			r.Config.Nodes, r.Spec.Weather, r.Config.StartTime, r.Config.DurationSec,
			cat.Spec.Weather, cat.Config.StartTime, cat.Config.DurationSec)
	}
	if r.Hash == cat.Hash {
		t.Error("overriding -nodes left the catalog entry's hash")
	}
}

// TestRunEndToEnd drives the full -scenario path on a catalog scenario and
// checks the archive artifacts: report.json must equal a fresh in-memory
// assessment byte for byte (the FromSource parity contract).
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(&buf, options{scenario: "trace-replay", clusters: 1, out: dir}); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "scenario trace-replay") || !strings.Contains(out, "mean PUE") {
		t.Errorf("run summary incomplete:\n%s", out)
	}

	var m struct {
		Spec    scenario.Spec `json:"spec"`
		Hash    string        `json:"hash"`
		RunSeed uint64        `json:"run_seed"`
		Trace   *struct {
			Jobs int `json:"jobs"`
		} `json:"trace"`
	}
	readJSON(t, filepath.Join(dir, "scenario.json"), &m)
	if m.Spec.Name != "trace-replay" || m.Hash == "" || m.RunSeed == 0 {
		t.Errorf("scenario.json manifest incomplete: %+v", m)
	}
	if m.Trace == nil || m.Trace.Jobs == 0 {
		t.Error("scenario.json lacks trace stats")
	}

	var rep whatif.Report
	readJSON(t, filepath.Join(dir, "report.json"), &rep)
	if rep.Label != "trace-replay" || rep.Hash != m.Hash || rep.Seed != m.RunSeed {
		t.Errorf("report identity mismatch: %+v vs manifest %+v", rep, m)
	}

	// The archived report must match a fresh memory-source assessment.
	r, err := scenario.Resolve("trace-replay")
	if err != nil {
		t.Fatal(err)
	}
	cfg := r.Config
	cfg.Workers = 1
	data, _, err := core.CollectRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Assess(data.Source())
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, _ := json.Marshal(want)
	gotRaw, _ := json.Marshal(rep)
	if !bytes.Equal(wantRaw, gotRaw) {
		t.Errorf("archived report differs from memory assessment:\n got %s\nwant %s", gotRaw, wantRaw)
	}
}

func TestRunSpecFile(t *testing.T) {
	dir := t.TempDir()
	spec := scenario.Spec{
		Version: scenario.Version, Name: "tiny", Nodes: 16, DurationSec: 3600,
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "tiny.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, options{scenario: path, clusters: 1, out: filepath.Join(dir, "out")}); err != nil {
		t.Fatalf("run spec file: %v", err)
	}
	if !strings.Contains(buf.String(), "scenario tiny") {
		t.Errorf("spec-file run summary wrong:\n%s", buf.String())
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestNodeDataLastDayErrorIsReturned blocks the partition path of the only
// node-power day, which its writer commits when the run closes it: the run
// must fail naming the partition, once, and write nothing more — no dataset
// of its archive, no provenance. In a fleet the blocked member is the first
// one, and the other member's writer is still closed: its day is on disk.
func TestNodeDataLastDayErrorIsReturned(t *testing.T) {
	for _, clusters := range []int{1, 2} {
		out := t.TempDir()
		dir := out
		if clusters > 1 {
			dir = filepath.Join(out, "summit-0")
		}
		if err := os.MkdirAll(filepath.Join(dir, "node-power-day00000.spwr"), 0o755); err != nil {
			t.Fatal(err)
		}
		err := run(io.Discard, options{nodes: 16, days: 1, seed: 5, clusters: clusters, sites: "summit", out: out, nodeData: true, quiet: true})
		if err == nil || !strings.Contains(err.Error(), "node-power-day00000.spwr") {
			t.Fatalf("%d cluster(s): run = %v, want an error naming node-power-day00000.spwr", clusters, err)
		}
		if strings.Count(err.Error(), "node-power-day00000.spwr:") != 1 {
			t.Errorf("%d cluster(s): the failed flush is not reported exactly once: %v", clusters, err)
		}
		for _, name := range []string{"cluster-power-day00000.spwr", "scenario.json", "report.json", "run-meta-day00000.spwr"} {
			if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
				t.Errorf("%d cluster(s): %s after a failed flush: stat = %v, want not exist", clusters, name, err)
			}
		}
		if clusters > 1 {
			if _, err := os.Stat(filepath.Join(out, "summit-1", "node-power-day00000.spwr")); err != nil {
				t.Errorf("the second member's writer was left open: %v", err)
			}
		}
	}
}

// fileSums maps every file under dir to its sha256.
func fileSums(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	sums := map[string][32]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		sums[path] = sha256.Sum256(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return sums
}

// TestRefusedRerunTouchesNothing: a shorter run into a longer run's
// directory is refused before its first window, naming the days it would
// leave behind, and every file of the earlier run — its node-power days and
// run-meta included — keeps its bytes. The same holds for a fleet member.
func TestRefusedRerunTouchesNothing(t *testing.T) {
	for _, clusters := range []int{1, 2} {
		dir := t.TempDir()
		if err := run(io.Discard, options{nodes: 16, days: 3, seed: 2020, clusters: clusters, sites: "summit", out: dir, nodeData: true, quiet: true}); err != nil {
			t.Fatal(err)
		}
		before := fileSums(t, dir)
		err := run(io.Discard, options{nodes: 16, days: 1, seed: 99, clusters: clusters, sites: "summit", out: dir, nodeData: true, quiet: true})
		if err == nil {
			t.Fatalf("%d cluster(s): a 1-day run was archived over a 3-day run", clusters)
		}
		for _, name := range []string{"cluster-power-day00001.spwr", "cluster-power-day00002.spwr", "node-power-day00002.spwr"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%d cluster(s): refusal does not name %s: %v", clusters, name, err)
			}
		}
		if after := fileSums(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("%d cluster(s): the refused run changed the directory", clusters)
		}
	}
}

// TestRerunWithoutADatasetIsRefused: a run into a directory that holds
// partitions of a dataset the run does not write — an earlier run's
// -nodedata days — is refused before its first window, naming them, and
// every file keeps its bytes. Otherwise the earlier run's node-power would
// be read beside the new run's run-meta as its own.
func TestRerunWithoutADatasetIsRefused(t *testing.T) {
	for _, clusters := range []int{1, 2} {
		dir := t.TempDir()
		if err := run(io.Discard, options{nodes: 16, days: 1, seed: 1, clusters: clusters, sites: "summit", out: dir, nodeData: true, quiet: true}); err != nil {
			t.Fatal(err)
		}
		before := fileSums(t, dir)
		err := run(io.Discard, options{nodes: 32, days: 1, seed: 1, clusters: clusters, sites: "summit", out: dir, quiet: true})
		if err == nil {
			t.Fatalf("%d cluster(s): a run without -nodedata was archived beside its days", clusters)
		}
		for _, name := range []string{"node-power-day00000.spwr"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%d cluster(s): refusal does not name %s: %v", clusters, name, err)
			}
		}
		if after := fileSums(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("%d cluster(s): the refused run changed the directory", clusters)
		}
	}
}

// TestOffGridSpanIsOneRun: a -days that is no whole number of windows —
// 0.3 days is 25 919.99… s, 1.0001 days runs 8.64 s past midnight — is one
// run to the simulator, the collector and the node-power writer alike: the
// archive passes fsck, node-power holds nodes × run-meta windows rows, and
// no cluster-power or job-series row lies outside the run-meta's span.
func TestOffGridSpanIsOneRun(t *testing.T) {
	for _, days := range []float64{0.3, 1.0001} {
		dir := t.TempDir()
		if err := run(io.Discard, options{nodes: 8, days: days, seed: 3, clusters: 1, out: dir, nodeData: true, quiet: true}); err != nil {
			t.Fatalf("-days %g: %v", days, err)
		}
		if err := fsck(io.Discard, dir); err != nil {
			t.Errorf("-days %g: fsck: %v", days, err)
		}
		src, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		meta, _ := src.Meta()
		end := meta.StartTime + meta.SpanSec()
		rows := map[string]int{}
		for _, name := range []string{source.DatasetNodePower, source.DatasetClusterPower} {
			x, ok := src.Index(name)
			if !ok {
				t.Fatalf("-days %g: no %s", days, name)
			}
			for _, day := range x.Days() {
				tab, err := x.Dataset().ReadDay(day)
				if err != nil {
					t.Fatal(err)
				}
				for _, ts := range tab.Col("timestamp").Ints {
					if ts < meta.StartTime || ts >= end {
						t.Errorf("-days %g: %s row at %d outside the span [%d, %d)", days, name, ts, meta.StartTime, end)
						break
					}
				}
				rows[name] += tab.NumRows()
			}
		}
		if rows[source.DatasetNodePower] != 8*meta.Windows || rows[source.DatasetClusterPower] != meta.Windows {
			t.Errorf("-days %g: %d node-power and %d cluster-power rows, want 8 × %d and %d run-meta windows",
				days, rows[source.DatasetNodePower], rows[source.DatasetClusterPower], meta.Windows, meta.Windows)
		}
		windows, err := src.JobPower()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range windows {
			if w.T < meta.StartTime || w.T >= end {
				t.Errorf("-days %g: job %d's window at %d outside the span [%d, %d)", days, w.AllocationID, w.T, meta.StartTime, end)
				break
			}
		}
	}
}
