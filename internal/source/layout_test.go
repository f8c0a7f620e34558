package source_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/failures"
	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/tsagg"
)

// syntheticRun builds a hand-made live plane of the given span on a 600 s
// grid carrying exactly the series every run must have, plus the given logs.
func syntheticRun(windows int, seed float64, jobs []source.JobRecord, evs []failures.Event) *source.MemorySource {
	const start, step = int64(1_577_836_800), int64(600)
	m := &source.MemorySource{
		RunMeta:      source.Meta{StartTime: start, StepSec: step, Nodes: 36, Windows: windows},
		SeriesByName: map[string]*tsagg.Series{},
		Jobs:         jobs,
		Events:       evs,
	}
	for i, name := range []string{
		source.SeriesClusterPower, source.SeriesClusterTruePower, source.SeriesCPUPower,
		source.SeriesGPUPower, source.SeriesPUE, source.SeriesSupplyC, source.SeriesReturnC,
		source.SeriesTowerTons, source.SeriesChillerTons, source.SeriesWetBulbC,
		source.SeriesGPUTempMean, source.SeriesGPUTempMax,
	} {
		s := tsagg.NewSeries(start, step, windows)
		for w := range s.Vals {
			s.Vals[w] = seed + float64(i*1000+w)
		}
		m.SeriesByName[name] = s
	}
	return m
}

// writeNodeDays archives days of a 36-node node-power dataset (with its
// companion) into dir, one row per node per 600 s window.
func writeNodeDays(t *testing.T, dir string, days int) {
	t.Helper()
	tcfg, err := topology.PresetScaled("", 36)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := topology.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	w := source.NewNodeDayWriter(dir, 36, floor)
	for win := int64(0); win < int64(days)*144; win++ {
		rows := make([]source.NodeWindow, 36)
		for n := range rows {
			rows[n] = source.NodeWindow{Node: int64(n), Stat: tsagg.WindowStat{T: 1_577_836_800 + win*600, Count: 2, Min: 1, Max: 3, Mean: 2, Std: 1}}
		}
		if err := w.Append(rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteArchiveRefusesLeftoverDays: re-archiving a shorter run into a
// directory still holding a longer run's days must fail, naming the files,
// before anything is written — otherwise the next reader is served the new
// day 0 spliced onto the old day 1. Re-archiving the same span stays legal.
func TestWriteArchiveRefusesLeftoverDays(t *testing.T) {
	dir := t.TempDir()
	writeNodeDays(t, dir, 2)
	if err := source.WriteArchive(dir, syntheticRun(288, 0, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := source.WriteArchive(dir, syntheticRun(288, 7, nil, nil)); err != nil {
		t.Fatalf("same-span rewrite refused: %v", err)
	}
	before := gunzippedSHA256(t, dir)

	writeNodeDays(t, dir, 1) // the shorter run's node observer ran first
	err := source.WriteArchive(dir, syntheticRun(144, 7, nil, nil))
	if err == nil {
		t.Fatal("a 1-day run was archived over a 2-day run's directory")
	}
	for _, file := range []string{"cluster-power-day00001.spwr", "node-power-day00001.spwr"} {
		if !strings.Contains(err.Error(), file) {
			t.Errorf("error does not name %s: %v", file, err)
		}
	}
	if after := gunzippedSHA256(t, dir); !reflect.DeepEqual(after, before) {
		t.Error("the refused write changed the directory")
	}
	src, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if s, err := src.Series(source.SeriesClusterPower); err != nil || s.Len() != 288 {
		t.Errorf("the refused write disturbed the archived run: %v", err)
	}
}

// TestWriteArchiveSideBySide: WriteArchive encodes its partitions in
// parallel, which may reach neither the files — one core and four write the
// same bytes — nor the order failures are reported in: that is the
// partitions' own, however the writes were scheduled.
func TestWriteArchiveSideBySide(t *testing.T) {
	run := syntheticRun(432, 3, nil, nil) // three days
	files := func(procs int) map[string]string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		dir := t.TempDir()
		if err := source.WriteArchive(dir, run); err != nil {
			t.Fatal(err)
		}
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
	if one, four := files(1), files(4); len(one) != 9 || !reflect.DeepEqual(one, four) {
		t.Errorf("GOMAXPROCS 1 wrote %d files, GOMAXPROCS 4 %d, or their bytes differ", len(one), len(four))
	}

	dir := t.TempDir()
	blocked := []string{"cluster-power-day00001.spwr", "cluster-power-day00002.spwr", "gpu-xid-day00000.spwr"}
	for _, name := range blocked {
		if err := os.MkdirAll(filepath.Join(dir, name, "occupied"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	err := source.WriteArchive(dir, run)
	if err == nil {
		t.Fatal("three partition paths were blocked and WriteArchive succeeded")
	}
	at := -1
	for _, name := range blocked {
		i := strings.Index(err.Error(), name)
		if i <= at {
			t.Fatalf("error does not name %s after the partitions before it: %v", name, err)
		}
		at = i
	}
	if _, err := os.Stat(filepath.Join(dir, "job-records-day00000.spwr")); err != nil {
		t.Errorf("a partition that could be written was not: %v", err)
	}
}

// TestInterruptedWriteIsNotACommittedRun: a write over a committed archive
// that fails part-way — here a directory squats on one partition's staging
// path — removes the old run-meta first and never writes the new one, so
// the mix of old and new days it leaves is refused by name, not served.
func TestInterruptedWriteIsNotACommittedRun(t *testing.T) {
	dir := t.TempDir()
	if err := source.WriteArchive(dir, syntheticRun(288, 0, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "cluster-power-day00001.spwr.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := source.WriteArchive(dir, syntheticRun(288, 7, nil, nil)); err == nil {
		t.Fatal("a write whose partition could not be staged succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, "run-meta-day00000.spwr")); !os.IsNotExist(err) {
		t.Errorf("run-meta after an interrupted write: stat = %v, want not exist", err)
	}
	if _, err := source.OpenArchive(source.ArchiveConfig{Dir: dir}); err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "run-meta") {
		t.Errorf("open after an interrupted write: %v, want a refusal naming %s and its run-meta", err, dir)
	}
}

// TestWriteArchiveRefusesHalfMeterPair: a meter without its sensor sum is
// half a Figure 4 pair. WriteArchive refuses the run, naming the missing
// column, and writes nothing, instead of archiving a meter no analysis can
// validate.
func TestWriteArchiveRefusesHalfMeterPair(t *testing.T) {
	run := syntheticRun(3, 0, nil, nil)
	for _, name := range []string{source.MeterSeriesName(0), source.MSBSumSeriesName(0), source.MeterSeriesName(1)} {
		s := tsagg.NewSeries(run.RunMeta.StartTime, run.RunMeta.StepSec, run.RunMeta.Windows)
		for w := range s.Vals {
			s.Vals[w] = 1e5 + float64(w)
		}
		run.SeriesByName[name] = s
	}
	dir := t.TempDir()
	err := source.WriteArchive(dir, run)
	if err == nil || !strings.Contains(err.Error(), source.MSBSumSeriesName(1)) {
		t.Fatalf("WriteArchive of a half meter pair = %v, want an error naming %s", err, source.MSBSumSeriesName(1))
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("refused write left %d entries (%v)", len(entries), err)
	}
}

// TestWriteArchiveFixedPoint: archiving what an archive serves reproduces
// the archive — the writer and the reader agree on every dataset's columns,
// order and types with no schema knowledge in the test.
func TestWriteArchiveFixedPoint(t *testing.T) {
	dir1, dir2 := archivePinnedRun(t), t.TempDir()
	src, err := source.OpenArchive(source.ArchiveConfig{Dir: dir1})
	if err != nil {
		t.Fatal(err)
	}
	if err := source.WriteArchive(dir2, src); err != nil {
		t.Fatal(err)
	}
	want, got := gunzippedSHA256(t, dir1), gunzippedSHA256(t, dir2)
	// The per-node dataset is written by the run's observer, not WriteArchive.
	for name := range want {
		if strings.HasPrefix(name, source.DatasetNodePower) {
			delete(want, name)
		}
	}
	if len(want) < 4 || !reflect.DeepEqual(got, want) {
		t.Errorf("re-archived partitions differ:\n got  %v\n want %v", got, want)
	}
}

// readNodeDay decodes one day of the node-power dataset through the store,
// as the query tier reads it: rows grouped by node, in file order.
func readNodeDay(dir string, day int) (map[int][]tsagg.WindowStat, error) {
	ds, err := store.NewDataset(dir, source.DatasetNodePower)
	if err != nil {
		return nil, err
	}
	tab, err := ds.ReadDay(day)
	if err != nil {
		return nil, err
	}
	ts, node, count := tab.Col("timestamp"), tab.Col("node"), tab.Col("input_power.count")
	mn, mx := tab.Col("input_power.min"), tab.Col("input_power.max")
	mean, std := tab.Col("input_power.mean"), tab.Col("input_power.std")
	for _, c := range []*store.Column{ts, node, count, mn, mx, mean, std} {
		if c == nil {
			return nil, fmt.Errorf("%s: missing column", ds.DayFile(day))
		}
	}
	out := map[int][]tsagg.WindowStat{}
	for i := 0; i < tab.NumRows(); i++ {
		n := int(node.Ints[i])
		out[n] = append(out[n], tsagg.WindowStat{T: ts.Ints[i], Count: count.Ints[i],
			Min: mn.Floats[i], Max: mx.Floats[i], Mean: mean.Floats[i], Std: std.Floats[i]})
	}
	return out, nil
}

// bitEqual compares two values of one struct type field by field, floats by
// bit pattern (NaN == NaN, -0 != +0).
func bitEqual(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if !fa.Equal(fb) {
			return false
		}
	}
	return true
}

// sameRows checks that read returns want, row for row, floats by bit pattern.
func sameRows[R any](t *testing.T, what string, want []R, read func() ([]R, error)) {
	t.Helper()
	got, err := read()
	if err != nil || len(got) != len(want) {
		t.Fatalf("%s rows: %d, %v; want %d", what, len(got), err, len(want))
	}
	for i := range got {
		if !bitEqual(got[i], want[i]) {
			t.Errorf("%s row %d: %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestSchemaRoundTripEdgeRows drives rows no simulated run produces through
// every row schema, writer to reader.
func TestSchemaRoundTripEdgeRows(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name   string
		jobs   []source.JobRecord
		evs    []failures.Event
		allocs []source.Allocation
		power  []source.JobWindow
		gpus   []source.GPUSample
		node   []tsagg.WindowStat // one node's windows
	}{
		{name: "empty logs"},
		{
			name: "non-finite floats, negative ids, zero-count windows",
			jobs: []source.JobRecord{
				{AllocationID: -1, Class: -2, Domain: math.MinInt32, Nodes: 0, BeginTime: -5, EndTime: math.MaxInt64,
					MaxPowerW: inf, MeanPowerW: nan, EnergyJ: -inf, MeanCPUPowerW: negZero, MaxCPUPowerW: math.MaxFloat64,
					MeanGPUPowerW: math.SmallestNonzeroFloat64, MaxGPUPowerW: 0},
				{AllocationID: math.MinInt64, Class: 5, Nodes: 4608, BeginTime: 1, EndTime: 0, EnergyJ: 1.5},
			},
			evs: []failures.Event{
				{Time: -1, Node: -3, Slot: -1, Type: failures.Type(-7), JobID: -9, TempC: nan, TempZ: -inf},
				{Time: math.MaxInt64, Node: 4625, Slot: 5, Type: failures.DoubleBitError, JobID: 0, TempC: negZero, TempZ: inf},
			},
			allocs: []source.Allocation{
				{AllocationID: -1, User: "", Project: "ünï,cødé\n\"q\"", Domain: -3, Class: math.MaxInt32, Nodes: 0,
					SubmitTime: math.MinInt64, BeginTime: -1, EndTime: math.MaxInt64},
				{AllocationID: math.MaxInt64, User: "u", Project: "", Nodes: 4608},
			},
			power: []source.JobWindow{
				{AllocationID: -1, T: math.MinInt64, PowerW: nan},
				{AllocationID: -1, T: math.MaxInt64, PowerW: negZero},
				{AllocationID: 0, T: 0, PowerW: -inf},
			},
			gpus: []source.GPUSample{
				{T: -10, AllocationID: 3, Node: -1, Slot: 6, PowerW: inf, TempC: nan},
				{T: 1 << 40, AllocationID: math.MinInt64, Node: 4625, Slot: 0, PowerW: math.SmallestNonzeroFloat64, TempC: negZero},
			},
			node: []tsagg.WindowStat{
				{T: 1_577_836_800, Count: 0, Min: nan, Max: nan, Mean: nan, Std: nan},
				{T: 1_577_836_810, Count: -1, Min: inf, Max: -inf, Mean: negZero, Std: 0},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			run := syntheticRun(3, 0, tc.jobs, tc.evs)
			run.Allocs, run.JobWindows, run.Exemplar = tc.allocs, tc.power, tc.gpus
			if err := source.WriteArchive(dir, run); err != nil {
				t.Fatal(err)
			}
			var rows []source.NodeWindow
			for _, st := range tc.node {
				rows = append(rows, source.NodeWindow{Node: 7, Stat: st})
			}
			// No floor: the reducer (rightly) has no accumulator for a NaN row.
			w := source.NewNodeDayWriter(dir, 1, nil)
			if err := w.Append(rows); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			src, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := src.JobRecords()
			if err != nil || len(jobs) != len(tc.jobs) {
				t.Fatalf("job rows: %d, %v; want %d", len(jobs), err, len(tc.jobs))
			}
			for i := range jobs {
				if !bitEqual(jobs[i], tc.jobs[i]) {
					t.Errorf("job row %d: %+v, want %+v", i, jobs[i], tc.jobs[i])
				}
			}
			evs, err := src.Failures()
			if err != nil || len(evs) != len(tc.evs) {
				t.Fatalf("failure rows: %d, %v; want %d", len(evs), err, len(tc.evs))
			}
			for i := range evs {
				if !bitEqual(evs[i], tc.evs[i]) {
					t.Errorf("failure row %d: %+v, want %+v", i, evs[i], tc.evs[i])
				}
			}
			sameRows(t, "allocation", tc.allocs, src.Allocations)
			sameRows(t, "job window", tc.power, src.JobPower)
			sameRows(t, "exemplar", tc.gpus, src.ExemplarGPUs)
			byNode, err := readNodeDay(dir, 0)
			if len(tc.node) == 0 {
				if err == nil {
					t.Error("an empty node buffer wrote a partition")
				}
				return
			}
			if err != nil || len(byNode) != 1 || len(byNode[7]) != len(tc.node) {
				t.Fatalf("node windows: %v, %v", byNode, err)
			}
			for i, st := range byNode[7] {
				if !bitEqual(st, tc.node[i]) {
					t.Errorf("node window %d: %+v, want %+v", i, st, tc.node[i])
				}
			}
		})
	}
}
