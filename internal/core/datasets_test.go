package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/tsagg"
)

func simConfigForNodeDataset() sim.Config {
	return sim.Config{
		Seed: 2, Nodes: 12, StartTime: 1_577_836_800,
		DurationSec: 1200, StepSec: 10, SamplesPerWindow: 2,
		Jobs: 8, FailureRateScale: 1,
	}
}

func simNew(cfg sim.Config) (*sim.Sim, error) { return sim.New(cfg) }

func TestWriteReadDatasets(t *testing.T) {
	d := testData(t)
	dir := t.TempDir()
	if err := WriteDatasets(dir, d); err != nil {
		t.Fatal(err)
	}
	src, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Cluster series round trip.
	power, err := src.Series(source.SeriesClusterPower)
	if err != nil {
		t.Fatal(err)
	}
	mem := runSeries(t, d, source.SeriesClusterPower)
	if power.Len() < mem.Len() {
		t.Fatalf("restored %d windows, want >= %d", power.Len(), mem.Len())
	}
	for i := 0; i < mem.Len(); i++ {
		want := mem.Vals[i]
		got := power.At(mem.TimeAt(i))
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("window %d: %v != %v", i, got, want)
		}
	}
	for _, name := range []string{source.SeriesPUE, source.SeriesSupplyC, source.SeriesReturnC,
		source.SeriesTowerTons, source.SeriesGPUTempMax} {
		if _, err := src.Series(name); err != nil {
			t.Errorf("column %q missing from cluster dataset: %v", name, err)
		}
	}
	// Failure log round trip.
	evs, err := src.Failures()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(d.Source().Events) {
		t.Fatalf("restored %d failures, want %d", len(evs), len(d.Source().Events))
	}
	for i := range evs {
		a, b := evs[i], d.Source().Events[i]
		if a.Time != b.Time || a.Node != b.Node || a.Slot != b.Slot ||
			a.Type != b.Type || a.JobID != b.JobID {
			t.Fatalf("failure %d mismatch: %+v vs %+v", i, a, b)
		}
		if a.HasTemp() != b.HasTemp() {
			t.Fatalf("failure %d temp presence mismatch", i)
		}
	}
	// Analyses run identically on restored failures.
	orig, err := Table4Composition(d.Source())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Table4Composition(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) != len(restored) {
		t.Fatal("composition differs after round trip")
	}
	for i := range orig {
		if orig[i] != restored[i] {
			t.Fatalf("composition row %d differs", i)
		}
	}
}

func TestReadDatasetsErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := source.OpenArchive(source.ArchiveConfig{Dir: dir}); err == nil {
		t.Error("empty dir read succeeded")
	}
	if err := WriteDatasets(dir, testData(t)); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, source.DatasetFailures+"-day*"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("failure log partitions %v, %v; want one", logs, err)
	}
	if err := os.Remove(logs[0]); err != nil {
		t.Fatal(err)
	}
	src, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Failures(); err == nil {
		t.Error("missing failure dataset read succeeded")
	}
}

func TestNodeDatasetWriter(t *testing.T) {
	dir := t.TempDir()
	cfg := simConfigForNodeDataset()
	d, _, err := CollectRun(cfg, nodeWriter(t, dir, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDatasets(dir, d); err != nil {
		t.Fatal(err)
	}
	byNode, err := readNodeDay(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(byNode) != cfg.Nodes {
		t.Fatalf("restored %d nodes, want %d", len(byNode), cfg.Nodes)
	}
	wantWindows := int(cfg.DurationSec / cfg.StepSec)
	for n, ws := range byNode {
		if len(ws) != wantWindows {
			t.Fatalf("node %d: %d windows, want %d", n, len(ws), wantWindows)
		}
		for _, st := range ws {
			if st.Min > st.Mean || st.Mean > st.Max || st.Count <= 0 {
				t.Fatalf("node %d window invariant broken: %+v", n, st)
			}
		}
	}
	if _, err := readNodeDay(dir, 7); err == nil {
		t.Error("missing day read succeeded")
	}
}

// nodeWriter is the observer that archives the per-node dataset of a run of
// cfg into dir, on the run's own floor; CollectRun closes it.
func nodeWriter(t *testing.T, dir string, cfg sim.Config) sim.Observer {
	t.Helper()
	w, err := NewNodeDatasetWriter(dir, cfg.Nodes, cfg.Site)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// nodeWriters is CollectFleet's extra: cluster i's node writer in dirs[i],
// built before the fleet runs.
func nodeWriters(t *testing.T, cfgs []sim.Config, dirs ...string) func(int) []sim.Observer {
	t.Helper()
	obs := make([][]sim.Observer, len(dirs))
	for i, dir := range dirs {
		obs[i] = []sim.Observer{nodeWriter(t, dir, cfgs[i])}
	}
	return func(i int) []sim.Observer { return obs[i] }
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

// TestCollectRunObservers pins what every former hand-rolled run-and-collect
// copy relied on: a node writer handed to CollectRun produces byte-for-byte
// the partitions CollectFleet writes for the same config as a one-member
// fleet, and extra observers do not perturb the collected run.
func TestCollectRunObservers(t *testing.T) {
	cfg := simConfigForNodeDataset()
	plain, plainRes, err := CollectRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir, fleetDir := t.TempDir(), t.TempDir()
	got, gotRes, err := CollectRun(cfg, nodeWriter(t, dir, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CollectFleet([]sim.Config{cfg}, 1, nodeWriters(t, []sim.Config{cfg}, fleetDir)); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(fleetDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var nodeParts, rollupParts int
	for _, name := range names {
		base := filepath.Base(name)
		switch {
		case strings.HasPrefix(base, source.RollupDatasetName(DatasetNodePower)+"-day"):
			rollupParts++
		case strings.HasPrefix(base, DatasetNodePower+"-day"):
			nodeParts++
		}
		want, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		have, err := os.ReadFile(filepath.Join(dir, base))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, have) {
			t.Errorf("%s differs between CollectRun and CollectFleet", base)
		}
	}
	if nodeParts == 0 || rollupParts != 0 {
		t.Fatalf("fleet wrote %d node-power and %d separate rollup partitions, want some and none (a day's file carries its companion)", nodeParts, rollupParts)
	}
	if mine, _ := filepath.Glob(filepath.Join(dir, "*")); len(mine) != len(names) {
		t.Errorf("CollectRun wrote %d files, fleet wrote %d", len(mine), len(names))
	}

	// The observed run is the same run.
	if fmt.Sprintf("%+v", plainRes) != fmt.Sprintf("%+v", gotRes) {
		t.Error("sim result differs with an extra observer")
	}
	assertRunDataBitEqual(t, plain, got)
}

// assertRunDataBitEqual compares every series of two runs at tolerance 0
// through the source plane's name table, plus the job and failure logs.
func assertRunDataBitEqual(t *testing.T, a, b *RunData) {
	t.Helper()
	sa, sb := a.Source(), b.Source()
	if len(sa.SeriesByName) == 0 || len(sa.SeriesByName) != len(sb.SeriesByName) {
		t.Fatalf("series sets differ: %d vs %d", len(sa.SeriesByName), len(sb.SeriesByName))
	}
	for name, x := range sa.SeriesByName {
		y := sb.SeriesByName[name]
		if y == nil || x.Len() != y.Len() || x.Start != y.Start || x.Step != y.Step {
			t.Fatalf("series %q shape differs", name)
		}
		for i := range x.Vals {
			if math.Float64bits(x.Vals[i]) != math.Float64bits(y.Vals[i]) {
				t.Fatalf("series %q window %d: %v != %v", name, i, x.Vals[i], y.Vals[i])
			}
		}
	}
	if fmt.Sprintf("%+v", sa.Jobs) != fmt.Sprintf("%+v", sb.Jobs) {
		t.Error("job records differ")
	}
	if fmt.Sprintf("%+v", sa.Events) != fmt.Sprintf("%+v", sb.Events) {
		t.Error("failure logs differ")
	}
}

// TestJobSeriesRoundTrip: every job's Σ input power windows come back from
// the archive's job-series with identical values and no other window, and
// an archive without the dataset says so.
func TestJobSeriesRoundTrip(t *testing.T) {
	d := testData(t)
	dir := t.TempDir()
	if err := WriteDatasets(dir, d); err != nil {
		t.Fatal(err)
	}
	src, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, views, _, err := jobPowerSeries(src)
	if err != nil {
		t.Fatal(err)
	}
	windows := map[int64]int{}
	for _, w := range d.Source().JobWindows {
		v, ok := views[w.AllocationID]
		if !ok {
			t.Fatalf("job %d missing from restore", w.AllocationID)
		}
		if got := v.At(w.T); math.Float64bits(got) != math.Float64bits(w.PowerW) {
			t.Fatalf("job %d window %d: %v != %v", w.AllocationID, w.T, got, w.PowerW)
		}
		windows[w.AllocationID]++
	}
	for id, v := range views {
		if n := len(v.Clean()); n != windows[id] {
			t.Fatalf("job %d restored %d windows, observed %d", id, n, windows[id])
		}
	}
	if len(windows) == 0 {
		t.Fatal("no jobs restored")
	}
	if err := os.Remove(filepath.Join(dir, source.DatasetJobSeries+"-day00000.spwr")); err != nil {
		t.Fatal(err)
	}
	if src, err = source.OpenArchive(source.ArchiveConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.JobPower(); !errors.Is(err, source.ErrUnavailable) || !strings.Contains(err.Error(), source.DatasetJobSeries) {
		t.Errorf("job series of an archive without them: %v, want ErrUnavailable naming %s", err, source.DatasetJobSeries)
	}
}

// TestNodeDatasetWriterRollupCompanion pins the collector-side half of the
// pre-aggregate parity contract: the companion partition appended to each
// day's file is bit-identical to re-reducing the archived day table's rows in
// file order.
func TestNodeDatasetWriterRollupCompanion(t *testing.T) {
	dir := t.TempDir()
	cfg := simConfigForNodeDataset()
	s, err := simNew(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewNodeDatasetWriter(dir, cfg.Nodes, cfg.Site)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	base, err := store.NewDataset(dir, DatasetNodePower)
	if err != nil {
		t.Fatal(err)
	}
	rds := base.Companion(source.RollupDatasetName(DatasetNodePower))
	baseDays, err := base.Days()
	if err != nil {
		t.Fatal(err)
	}
	if len(baseDays) == 0 {
		t.Fatal("no node-power day written")
	}
	tcfg, err := topology.PresetScaled(cfg.Site, cfg.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := topology.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, day := range baseDays {
		tab, err := base.ReadDay(day)
		if err != nil {
			t.Fatal(err)
		}
		ts, node := tab.Col("timestamp").Ints, tab.Col("node").Ints
		red := source.NewRollupReducer(floor, source.NodeRollupCols)
		vals := make([]float64, len(source.NodeRollupCols))
		for r := range ts {
			for c, name := range source.NodeRollupCols {
				col := tab.Col(name)
				if col.IsInt() {
					vals[c] = float64(col.Ints[r])
				} else {
					vals[c] = col.Floats[r]
				}
			}
			if err := red.Add(ts[r], node[r], vals); err != nil {
				t.Fatal(err)
			}
		}
		want := red.Table()
		got, err := rds.ReadDay(day)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Cols) != len(want.Cols) {
			t.Fatalf("day %d: %d companion columns, want %d", day, len(got.Cols), len(want.Cols))
		}
		for _, wc := range want.Cols {
			gc := got.Col(wc.Name)
			if gc == nil {
				t.Fatalf("day %d: companion lost column %q", day, wc.Name)
			}
			if len(gc.Ints) != len(wc.Ints) || len(gc.Floats) != len(wc.Floats) {
				t.Fatalf("day %d column %q: length mismatch", day, wc.Name)
			}
			for r := range wc.Ints {
				if gc.Ints[r] != wc.Ints[r] {
					t.Fatalf("day %d column %q row %d: %d != %d", day, wc.Name, r, gc.Ints[r], wc.Ints[r])
				}
			}
			for r := range wc.Floats {
				if math.Float64bits(gc.Floats[r]) != math.Float64bits(wc.Floats[r]) {
					t.Fatalf("day %d column %q row %d: %v != %v", day, wc.Name, r, gc.Floats[r], wc.Floats[r])
				}
			}
		}
	}
}
