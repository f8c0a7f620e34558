package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/source"
	"repro/internal/store"
)

// fsckArchive simulates a small run with the per-node dataset into a fresh
// directory: eight datasets, node-power among them, its one day carrying its
// rollup companion.
func fsckArchive(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cfg := repro.ScaledConfig(36, time.Hour)
	nodes, err := core.NewNodeDatasetWriter(dir, cfg.Nodes, cfg.Site)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := core.CollectRun(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WriteDatasets(dir, data); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestFsck: a fresh archive is clean; a partition as the builds before
// column directories wrote it (the checked-in codec0.spwr), whole or with a
// flipped byte, a flipped byte, a cut-off file, bytes after the last member
// and a flipped byte in the companion a node-power day carries each fail the
// check, naming the partition (and the column, where one is damaged); so do
// a missing or incomplete run-meta and a partition at a day the run-meta's
// span does not reach, naming the file.
func TestFsck(t *testing.T) {
	rewrite := func(t *testing.T, path string, edit func([]byte) []byte) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edit(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flipMiddle := func(raw []byte) []byte { raw[len(raw)/2] ^= 0x20; return raw }
	legacy, err := os.ReadFile(filepath.Join("..", "..", "internal", "store", "testdata", "codec0.spwr"))
	if err != nil {
		t.Fatal(err)
	}
	fromEarlierBuild := func([]byte) []byte { return append([]byte(nil), legacy...) }

	cases := []struct {
		name   string
		damage func(t *testing.T, dir string)
		want   []string // in the output of a failed check; nil: the check passes
	}{
		{"fresh", func(*testing.T, string) {}, nil},
		{"one partition from an earlier build", func(t *testing.T, dir string) {
			rewrite(t, filepath.Join(dir, "cluster-power-day00000.spwr"), fromEarlierBuild)
		}, []string{"cluster-power-day00000.spwr: store: no directory"}},
		{"flipped byte in a member", func(t *testing.T, dir string) {
			rewrite(t, filepath.Join(dir, "node-power-day00000.spwr"), flipMiddle)
		}, []string{"node-power-day00000.spwr", `column "input_power.`}},
		{"flipped byte in a single stream", func(t *testing.T, dir string) {
			rewrite(t, filepath.Join(dir, "gpu-xid-day00000.spwr"), func(raw []byte) []byte { return flipMiddle(fromEarlierBuild(raw)) })
		}, []string{"gpu-xid-day00000.spwr: store: no directory"}},
		{"cut short", func(t *testing.T, dir string) {
			rewrite(t, filepath.Join(dir, "job-records-day00000.spwr"), func(raw []byte) []byte { return raw[:len(raw)-9] })
		}, []string{"job-records-day00000.spwr", `column "max_gpu_pwr"`}},
		{"bytes after the last member", func(t *testing.T, dir string) {
			rewrite(t, filepath.Join(dir, "run-meta-day00000.spwr"), func(raw []byte) []byte { return append(raw, 0) })
		}, []string{"run-meta-day00000.spwr", "the last member ends at byte"}},
		{"no run-meta", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "run-meta-day00000.spwr")); err != nil {
				t.Fatal(err)
			}
		}, []string{"run-meta-day00000.spwr", "no readable run-meta"}},
		{"run-meta without its site column", func(t *testing.T, dir string) {
			m, err := source.ReadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			tab := source.ManifestTable(m)
			tab.Cols = tab.Cols[:len(tab.Cols)-1]
			if err := (&store.Dataset{Dir: dir, Name: source.DatasetRunMeta}).WriteDay(0, tab); err != nil {
				t.Fatal(err)
			}
		}, []string{"run-meta-day00000.spwr lacks column(s) site"}},
		{"a day outside the run-meta's span", func(t *testing.T, dir string) {
			raw, err := os.ReadFile(filepath.Join(dir, "cluster-power-day00000.spwr"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "cluster-power-day00001.spwr"), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}, []string{"outside the run's 3600 s span: cluster-power-day00001.spwr"}},
		{"flipped byte in the companion", func(t *testing.T, dir string) {
			// The last column member of the companion appended to the day,
			// a few bytes before its gzip trailer.
			rewrite(t, filepath.Join(dir, "node-power-day00000.spwr"), func(raw []byte) []byte { raw[len(raw)-12] ^= 0x20; return raw })
		}, []string{"node-power-day00000.spwr", `companion: store: column "input_power.std.m2"`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := fsckArchive(t)
			tc.damage(t, dir)
			var out strings.Builder
			err := fsck(&out, dir)
			if tc.want == nil {
				if err != nil || strings.Count(out.String(), ", 0 problems\n") != 8 {
					t.Fatalf("fsck of a sound archive: %v\n%s", err, out.String())
				}
				// node-power's base days XOR each node with itself a window
				// back and carry the companion; nothing else does either.
				if strings.Count(out.String(), ", 0 with strided columns, 0 with a companion,") != 7 || !strings.Contains(out.String(), ": node-power: 1 partitions, 1 with strided columns, 1 with a companion,") {
					t.Errorf("fsck of a sound archive, want node-power's one day strided and with a companion, and nothing else:\n%s", out.String())
				}
				return
			}
			if err == nil {
				t.Fatalf("fsck passed:\n%s", out.String())
			}
			for _, want := range tc.want {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output does not say %q:\n%s", want, out.String())
				}
			}
		})
	}
}
