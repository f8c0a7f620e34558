package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/store/storetest"
	"repro/internal/units"
)

// testArchive builds one archive shared by the analyze subcommand tests.
var archiveDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "analyze-test-*")
	if err != nil {
		panic(err)
	}
	cfg := repro.ScaledConfig(36, time.Hour)
	data, _, err := core.CollectRun(cfg)
	if err != nil {
		panic(err)
	}
	if err := core.WriteDatasets(dir, data); err != nil {
		panic(err)
	}
	archiveDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func openTestArchive(t *testing.T) source.RunSource {
	t.Helper()
	src, err := source.OpenArchive(source.ArchiveConfig{Dir: archiveDir})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestDispatchSubcommands(t *testing.T) {
	src := openTestArchive(t)
	cases := []struct {
		cmd  string
		want string
	}{
		{"summary", "sum_inp"},
		{"edges", "edges at threshold"},
		{"fft", "dominant swing"},
		{"failures", "Memory page fault"},
		{"jobs", "jobs total"},
		{"bands", "<30°C"},
		{"earlywarning", "precursor"},
		{"validation", "relative error"},
		{"overcooling", "excess cooling"},
	}
	for _, c := range cases {
		var b strings.Builder
		if err := dispatch(&b, c.cmd, src); err != nil {
			t.Errorf("%s: %v", c.cmd, err)
			continue
		}
		if !strings.Contains(b.String(), c.want) {
			t.Errorf("%s output missing %q:\n%s", c.cmd, c.want, b.String())
		}
	}
}

func TestDispatchUnknownAndMissing(t *testing.T) {
	var b strings.Builder
	if err := dispatch(&b, "nope", openTestArchive(t)); err == nil {
		t.Error("unknown command accepted")
	}
	if _, err := source.OpenArchive(source.ArchiveConfig{Dir: t.TempDir()}); err == nil {
		t.Error("missing archive accepted")
	}
}

// tiedJobs serves a job log with energy ties; the rest of the plane is
// never asked.
type tiedJobs struct{ source.RunSource }

func (tiedJobs) JobRecords() ([]source.JobRecord, error) {
	job := func(id int64, energyKWh float64) source.JobRecord {
		return source.JobRecord{AllocationID: id, Class: int(id % 3), Nodes: 4, BeginTime: 0, EndTime: 3600,
			MeanPowerW: 2000, MaxPowerW: 2500, EnergyJ: energyKWh * units.JoulesPerKWh}
	}
	return []source.JobRecord{job(1, 5), job(2, 9), job(3, 5), job(4, 1), job(5, 9), job(6, 5), job(7, 12)}, nil
}

// TestJobsRankingKeepsLogOrderOnTies pins the -cmd jobs ranking byte for
// byte: descending energy, and equal energies in job-log order (a strict >
// under a stable sort).
func TestJobsRankingKeepsLogOrderOnTies(t *testing.T) {
	var b strings.Builder
	if err := dispatch(&b, "jobs", tiedJobs{}); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"allocation  class  nodes  hours  mean (kW)  max (kW)  energy (kWh)\n" +
		"----------  -----  -----  -----  ---------  --------  ------------\n" +
		"7           1      4      1      2          2.500     12          \n" +
		"2           2      4      1      2          2.500     9           \n" +
		"5           2      4      1      2          2.500     9           \n" +
		"1           1      4      1      2          2.500     5           \n" +
		"3           0      4      1      2          2.500     5           \n" +
		"6           0      4      1      2          2.500     5           \n" +
		"4           1      4      1      2          2.500     1           \n" +
		"7 jobs total\n"
	if b.String() != want {
		t.Errorf("jobs ranking changed:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// fsckArchive simulates a small run with the per-node dataset into a fresh
// directory: five datasets, node-power among them, its one day carrying its
// rollup companion.
func fsckArchive(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cfg := repro.ScaledConfig(36, time.Hour)
	data, _, err := core.CollectRun(cfg, func(*sim.Sim) (sim.Observer, error) {
		return core.NewNodeDatasetWriter(dir, cfg.Nodes, cfg.Site)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WriteDatasets(dir, data); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestFsck: a fresh archive is clean, also with one partition re-framed the
// way every earlier build wrote it; a flipped byte, a cut-off file, bytes
// after the last member and a flipped byte in the companion a node-power day
// carries each fail the check, naming the partition (and the column, where
// one is damaged); so do a missing or incomplete run-meta and a partition at
// a day the run-meta's span does not reach, naming the file.
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
	singleStream := func(raw []byte) []byte { return storetest.SingleStream(t, raw) }
	flipMiddle := func(raw []byte) []byte { raw[len(raw)/2] ^= 0x20; return raw }

	cases := []struct {
		name   string
		damage func(t *testing.T, dir string)
		want   []string // in the output of a failed check; nil: the check passes
	}{
		{"fresh", func(*testing.T, string) {}, nil},
		{"one partition from an earlier build", func(t *testing.T, dir string) {
			rewrite(t, filepath.Join(dir, "cluster-power-day00000.spwr"), singleStream)
		}, nil},
		{"flipped byte in a member", func(t *testing.T, dir string) {
			rewrite(t, filepath.Join(dir, "node-power-day00000.spwr"), flipMiddle)
		}, []string{"node-power-day00000.spwr", `column "input_power.`}},
		{"flipped byte in a single stream", func(t *testing.T, dir string) {
			rewrite(t, filepath.Join(dir, "gpu-xid-day00000.spwr"), func(raw []byte) []byte { return flipMiddle(singleStream(raw)) })
		}, []string{"gpu-xid-day00000.spwr"}},
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
			err := fsck(&out, dir, "")
			if tc.want == nil {
				if err != nil || strings.Count(out.String(), ", 0 problems\n") != 5 {
					t.Fatalf("fsck of a sound archive: %v\n%s", err, out.String())
				}
				// node-power's base days XOR each node with itself a window
				// back and carry the companion; nothing else does either.
				if strings.Count(out.String(), ", 0 with strided columns, 0 with a companion,") != 4 || !strings.Contains(out.String(), ": node-power: 1 partitions, 1 framed as members, 0 as one stream, 1 with strided columns, 1 with a companion,") {
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

// TestRefusesAnArchiveWithoutRunMeta: with its run-meta deleted, a 16-node
// archive is refused by every subcommand, naming the directory, before a
// line is printed — never analyzed on a guessed system size, which put the
// edge threshold at 256 nodes' 0.22 MW. fsck fails it too.
func TestRefusesAnArchiveWithoutRunMeta(t *testing.T) {
	dir := t.TempDir()
	data, _, err := core.CollectRun(repro.ScaledConfig(16, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WriteDatasets(dir, data); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "run-meta-day00000.spwr")); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"summary", "edges", "bands", "fsck"} {
		var out strings.Builder
		err := run(&out, dir, "", cmd)
		if err == nil {
			t.Errorf("%s: an archive without run-meta was analyzed:\n%s", cmd, out.String())
			continue
		}
		if cmd == "fsck" {
			if !strings.Contains(out.String(), "run-meta-day00000.spwr") {
				t.Errorf("fsck does not name the missing run-meta:\n%s", out.String())
			}
			continue
		}
		if !strings.Contains(err.Error(), dir) || out.Len() != 0 {
			t.Errorf("%s: %v, printing %q; want a refusal naming %s and no output", cmd, err, out.String(), dir)
		}
	}
}
