package main

import (
	"os"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/source"
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
	data, _, err := repro.Simulate(cfg)
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
