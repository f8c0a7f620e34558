package query

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/tsagg"
)

// Archive fixture: a node-power dataset (timestamp, node, input_power.mean)
// and a cluster-power dataset (timestamp, sum_inp), daily-partitioned, and
// the run-meta that commits them.
const (
	fixNodes = 20
	fixDays  = 3
	fixStep  = int64(120)
	daySec   = int64(86400)
)

func fixPower(node int64, t int64) float64 {
	return 1000 + 10*float64(node) + float64(t%3600)*0.01
}

func writeTestArchive(t testing.TB, dir string) {
	t.Helper()
	nodeDS, err := store.NewDataset(dir, "node-power")
	if err != nil {
		t.Fatal(err)
	}
	clusterDS, err := store.NewDataset(dir, "cluster-power")
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < fixDays; day++ {
		var ts, node []int64
		var val []float64
		var cts []int64
		var sum []float64
		for tm := int64(day) * daySec; tm < int64(day+1)*daySec; tm += fixStep {
			total := 0.0
			for n := int64(0); n < fixNodes; n++ {
				ts = append(ts, tm)
				node = append(node, n)
				v := fixPower(n, tm)
				val = append(val, v)
				total += v
			}
			cts = append(cts, tm)
			sum = append(sum, total)
		}
		err := nodeDS.WriteDay(day, &store.Table{Cols: []store.Column{
			{Name: "timestamp", Ints: ts},
			{Name: "node", Ints: node},
			{Name: "input_power.mean", Floats: val},
		}})
		if err != nil {
			t.Fatal(err)
		}
		err = clusterDS.WriteDay(day, &store.Table{Cols: []store.Column{
			{Name: "timestamp", Ints: cts},
			{Name: "sum_inp", Floats: sum},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	commitArchive(t, dir, fixNodes)
}

// commitArchive makes the datasets in dir an archive the engine opens: it
// adds a one-row cluster-power day if dir holds none, then writes the
// run-meta, recording nodes, last, as a run commits.
func commitArchive(t testing.TB, dir string, nodes int) {
	t.Helper()
	cluster, err := store.NewDataset(dir, source.DatasetClusterPower)
	if err != nil {
		t.Fatal(err)
	}
	if days, err := cluster.Days(); err != nil || len(days) == 0 {
		if err := cluster.WriteDay(0, &store.Table{Cols: []store.Column{
			{Name: "timestamp", Ints: []int64{0}}, {Name: "sum_inp", Floats: []float64{0}},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	manifest, err := store.NewDataset(dir, source.DatasetRunMeta)
	if err != nil {
		t.Fatal(err)
	}
	meta := source.Meta{StepSec: fixStep, Nodes: nodes, Windows: int(fixDays * daySec / fixStep)}
	if err := manifest.WriteDay(0, source.ManifestTable(meta)); err != nil {
		t.Fatal(err)
	}
}

func testEngine(t testing.TB) *Engine {
	t.Helper()
	dir := t.TempDir()
	writeTestArchive(t, dir)
	e, err := Open(Config{Dir: dir, Nodes: fixNodes})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestOpenMissingPathCreatesNothing: opening an archive is read-only. A
// mistyped path must come back as fs.ErrNotExist from both readers and must
// not be created as a side effect; the first write into a fresh path still
// creates it.
func TestOpenMissingPathCreatesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "typo", "archive")
	if _, err := source.OpenArchive(source.ArchiveConfig{Dir: dir}); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("OpenArchive on a missing path: %v, want fs.ErrNotExist", err)
	}
	if _, err := Open(Config{Dir: dir}); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Open on a missing path: %v, want fs.ErrNotExist", err)
	}
	if _, err := os.Stat(filepath.Dir(dir)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a failed open left %s behind (stat: %v)", filepath.Dir(dir), err)
	}
	ds, err := store.NewDataset(dir, "probe")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteDay(0, &store.Table{Cols: []store.Column{{Name: "timestamp", Ints: []int64{1}}}}); err != nil {
		t.Fatalf("first write into a fresh path: %v", err)
	}
	if tab, err := ds.ReadDay(0); err != nil || tab.NumRows() != 1 {
		t.Fatalf("read back after the first write: %v", err)
	}
}

// TestOpenChecksTheRunMeta: the floor is always the run-meta's, so a node
// count or a site the caller expects only checks against it.
func TestOpenChecksTheRunMeta(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)
	if _, err := Open(Config{Dir: dir, Nodes: fixNodes + 1}); !errors.Is(err, source.ErrNodesMismatch) {
		t.Errorf("a contradicting node count: %v, want source.ErrNodesMismatch", err)
	}
	if _, err := Open(Config{Dir: dir, Site: "frontier"}); err == nil || !strings.Contains(err.Error(), `"frontier"`) {
		t.Errorf("a contradicting site: %v, want a refusal naming it", err)
	}
	if _, err := Open(Config{Dir: dir, Nodes: fixNodes}); err != nil {
		t.Errorf("the run-meta's own node count: %v", err)
	}
}

// TestMetadataErrorDoesNotStick: a partition unreadable at the first query
// (still being written, say) fails that query, naming the file — and only
// that query. Once the bytes are whole the same engine answers.
func TestMetadataErrorDoesNotStick(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)
	e, err := Open(Config{Dir: dir, Nodes: fixNodes})
	if err != nil {
		t.Fatal(err)
	}
	part := filepath.Join(dir, "node-power-day00001.spwr")
	whole, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(part, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := RangeRequest{Dataset: "node-power", Column: "input_power.mean", Node: 3, T0: 0, T1: 3 * daySec, Step: 600}
	if _, err := e.Range(ctx, req); err == nil || !strings.Contains(err.Error(), filepath.Base(part)) {
		t.Fatalf("query over a torn partition: %v, want an error naming %s", err, filepath.Base(part))
	}
	if err := os.WriteFile(part, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := e.Range(ctx, req)
	if err != nil {
		t.Fatalf("query after the partition was restored: %v", err)
	}
	if res.Stats.DaysScanned != 3 || len(res.Windows) == 0 {
		t.Errorf("restored query scanned %d days, %d windows", res.Stats.DaysScanned, len(res.Windows))
	}
}

func TestOpenDiscoversDatasets(t *testing.T) {
	e := testEngine(t)
	infos, err := e.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("found %d datasets, want 3", len(infos))
	}
	if infos[0].Name != "cluster-power" || infos[1].Name != "node-power" || infos[2].Name != source.DatasetRunMeta {
		t.Errorf("names = %s, %s, %s", infos[0].Name, infos[1].Name, infos[2].Name)
	}
	np := infos[1]
	if np.Days != fixDays {
		t.Errorf("days = %d", np.Days)
	}
	wantRows := int64(fixDays) * (daySec / fixStep) * fixNodes
	if np.Rows != wantRows {
		t.Errorf("rows = %d, want %d", np.Rows, wantRows)
	}
	if !np.HasTime || np.MinTime != 0 || np.MaxTime != int64(fixDays)*daySec-fixStep {
		t.Errorf("span = [%d, %d] has=%v", np.MinTime, np.MaxTime, np.HasTime)
	}
	if len(np.Columns) != 3 {
		t.Errorf("columns = %v", np.Columns)
	}
}

// TestOpenSkipsNonCanonicalPartitionNames: a file whose name only looks like
// a partition — here over-padded, so store.Dataset.Days would never list it —
// must not surface as a phantom, zero-day dataset.
func TestOpenSkipsNonCanonicalPartitionNames(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)
	part, err := os.ReadFile(filepath.Join(dir, "node-power-day00001.spwr"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray-day000007.spwr"), part, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Open(Config{Dir: dir, Nodes: fixNodes})
	if err != nil {
		t.Fatal(err)
	}
	infos, err := e.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.Name == "stray" || info.Days == 0 {
			t.Errorf("phantom dataset listed: %+v", info)
		}
	}
	if len(infos) != 3 {
		t.Errorf("found %d datasets, want 3", len(infos))
	}
}

func TestRangeRawMatchesDirectScan(t *testing.T) {
	e := testEngine(t)
	// Cross the day 0 / day 1 boundary.
	t0, t1 := daySec-1200, daySec+1200
	res, err := e.Range(context.Background(), RangeRequest{
		Dataset: "cluster-power", Column: "sum_inp", Node: -1, T0: t0, T1: t1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Direct scan for comparison.
	ds, _ := store.NewDataset(e.cfg.Dir, "cluster-power")
	var want []Point
	for day := 0; day < fixDays; day++ {
		tab, err := ds.ReadDay(day)
		if err != nil {
			t.Fatal(err)
		}
		ts := tab.Col("timestamp").Ints
		vs := tab.Col("sum_inp").Floats
		for i, tm := range ts {
			if tm >= t0 && tm < t1 {
				want = append(want, Point{T: tm, V: vs[i]})
			}
		}
	}
	if len(res.Points) != len(want) {
		t.Fatalf("got %d points, want %d", len(res.Points), len(want))
	}
	for i := range want {
		if res.Points[i] != want[i] {
			t.Fatalf("point %d = %+v, want %+v", i, res.Points[i], want[i])
		}
	}
	if res.Stats.DaysScanned != 2 || res.Stats.DaysPruned != 1 {
		t.Errorf("scanned/pruned = %d/%d, want 2/1", res.Stats.DaysScanned, res.Stats.DaysPruned)
	}
}

func TestRangePruningSingleDay(t *testing.T) {
	e := testEngine(t)
	res, err := e.Range(context.Background(), RangeRequest{
		Dataset: "node-power", Column: "input_power.mean", Node: -1,
		T0: daySec + 600, T1: daySec + 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DaysScanned != 1 || res.Stats.DaysPruned != fixDays-1 {
		t.Errorf("scanned/pruned = %d/%d", res.Stats.DaysScanned, res.Stats.DaysPruned)
	}
	wantRows := int64(daySec/fixStep) * fixNodes
	if res.Stats.RowsScanned != wantRows {
		t.Errorf("rows scanned = %d, want %d", res.Stats.RowsScanned, wantRows)
	}
}

func TestRangeNodeFilter(t *testing.T) {
	e := testEngine(t)
	const node = 7
	res, err := e.Range(context.Background(), RangeRequest{
		Dataset: "node-power", Column: "input_power.mean", Node: node,
		T0: 0, T1: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != int(3600/fixStep) {
		t.Fatalf("got %d points", len(res.Points))
	}
	for _, p := range res.Points {
		if p.V != fixPower(node, p.T) {
			t.Fatalf("point %+v, want v=%v", p, fixPower(node, p.T))
		}
	}
}

func TestRangeDownsampleMatchesCoarsen(t *testing.T) {
	e := testEngine(t)
	const step = int64(600)
	t0, t1 := int64(0), int64(7200)
	res, err := e.Range(context.Background(), RangeRequest{
		Dataset: "cluster-power", Column: "sum_inp", Node: -1, T0: t0, T1: t1, Step: step,
	})
	if err != nil {
		t.Fatal(err)
	}
	var samples []tsagg.Sample
	for tm := t0; tm < t1; tm += fixStep {
		samples = append(samples, tsagg.Sample{T: tm, V: res0SumInp(tm)})
	}
	want := tsagg.Coarsen(samples, step)
	if len(res.Windows) != len(want) {
		t.Fatalf("got %d windows, want %d", len(res.Windows), len(want))
	}
	for i := range want {
		g, w := res.Windows[i], want[i]
		if g.T != w.T || g.Count != w.Count || g.Min != w.Min || g.Max != w.Max ||
			math.Abs(g.Mean-w.Mean) > 1e-9 {
			t.Fatalf("window %d = %+v, want %+v", i, g, w)
		}
	}
}

// res0SumInp recomputes the fixture's cluster sum at time tm.
func res0SumInp(tm int64) float64 {
	total := 0.0
	for n := int64(0); n < fixNodes; n++ {
		total += fixPower(n, tm)
	}
	return total
}

// TestRangeCacheHits pins the admission policy: a first-touch full-day scan
// is served by the streaming iterator and NOT admitted to the cache; the
// second touch materializes and admits; the third hits.
func TestRangeCacheHits(t *testing.T) {
	e := testEngine(t)
	req := RangeRequest{Dataset: "node-power", Column: "input_power.mean", Node: -1, T0: 0, T1: 2 * daySec}
	first, err := e.Range(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CacheMisses != 2 || first.Stats.CacheHits != 0 {
		t.Fatalf("cold query hits/misses = %d/%d", first.Stats.CacheHits, first.Stats.CacheMisses)
	}
	if e.Metrics().IterScans.Load() != 2 {
		t.Fatalf("cold query iterator scans = %d, want 2", e.Metrics().IterScans.Load())
	}
	if e.Metrics().BytesDecoded.Load() != 0 {
		t.Error("first-touch scan materialized a table")
	}
	if entries, _ := e.Source().Cache().Stats(); entries != 0 {
		t.Fatalf("first-touch scan admitted %d entries", entries)
	}
	second, err := e.Range(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.CacheHits != 0 || second.Stats.CacheMisses != 2 {
		t.Fatalf("second query hits/misses = %d/%d", second.Stats.CacheHits, second.Stats.CacheMisses)
	}
	if e.Metrics().BytesDecoded.Load() == 0 {
		t.Error("bytes decoded not counted")
	}
	if entries, _ := e.Source().Cache().Stats(); entries != 2 {
		t.Fatalf("second touch admitted %d entries, want 2", entries)
	}
	third, err := e.Range(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if third.Stats.CacheHits != 2 || third.Stats.CacheMisses != 0 {
		t.Fatalf("warm query hits/misses = %d/%d", third.Stats.CacheHits, third.Stats.CacheMisses)
	}
	if e.Metrics().CacheHits.Load() != 2 || e.Metrics().CacheMisses.Load() != 4 {
		t.Errorf("metrics hits/misses = %d/%d",
			e.Metrics().CacheHits.Load(), e.Metrics().CacheMisses.Load())
	}
	// Results along all three paths are identical.
	if len(first.Points) != len(second.Points) || len(first.Points) != len(third.Points) {
		t.Fatal("path results diverge in shape")
	}
	for i := range first.Points {
		if first.Points[i] != second.Points[i] || first.Points[i] != third.Points[i] {
			t.Fatalf("point %d diverges across read paths", i)
		}
	}
	e.FlushCache()
	flushed, err := e.Range(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// A flush also forgets the doorkeeper's touch counts: the cache is
	// fully cold again, so the next scan streams without admitting.
	if flushed.Stats.CacheMisses != 2 {
		t.Errorf("post-flush query misses = %d", flushed.Stats.CacheMisses)
	}
	if entries, _ := e.Source().Cache().Stats(); entries != 0 {
		t.Fatalf("post-flush first touch admitted %d entries", entries)
	}
}

func TestRangeErrors(t *testing.T) {
	e := testEngine(t)
	ctx := context.Background()
	if _, err := e.Range(ctx, RangeRequest{Dataset: "nope", Column: "x", Node: -1, T0: 0, T1: 1}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown dataset: %v", err)
	}
	if _, err := e.Range(ctx, RangeRequest{Dataset: "cluster-power", Column: "nope", Node: -1, T0: 0, T1: 1}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown column: %v", err)
	}
	if _, err := e.Range(ctx, RangeRequest{Dataset: "cluster-power", Column: "sum_inp", Node: -1, T0: 5, T1: 5}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("empty range: %v", err)
	}
	if _, err := e.Range(ctx, RangeRequest{Dataset: "cluster-power", Column: "sum_inp", Node: 3, T0: 0, T1: 10}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("node filter without node column: %v", err)
	}
	if errs := e.Metrics().Errors.Load(); errs != 4 {
		t.Errorf("error counter = %d, want 4", errs)
	}
}

func TestRangeContextCancelled(t *testing.T) {
	e := testEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Range(ctx, RangeRequest{
		Dataset: "node-power", Column: "input_power.mean", Node: -1, T0: 0, T1: daySec,
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled query: %v", err)
	}
}

func TestRollupCabinet(t *testing.T) {
	e := testEngine(t)
	const step = int64(1800)
	t0, t1 := int64(0), int64(7200)
	res, err := e.Rollup(context.Background(), RollupRequest{
		Dataset: "node-power", Column: "input_power.mean",
		Group: GroupCabinet, T0: t0, T1: t1, Step: step,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 20 nodes at 18 per cabinet = cabinets {0: nodes 0-17, 1: nodes 18-19}.
	if len(res.Series) != 2 {
		t.Fatalf("got %d cabinet series, want 2", len(res.Series))
	}
	if res.Series[0].Label != "cab000" || res.Series[1].Label != "cab001" {
		t.Errorf("labels = %s, %s", res.Series[0].Label, res.Series[1].Label)
	}
	for _, gs := range res.Series {
		lo, hi := int64(0), int64(18) // cabinet 0
		if gs.Group == 1 {
			lo, hi = 18, 20
		}
		if len(gs.Windows) != int((t1-t0)/step) {
			t.Fatalf("cabinet %d: %d windows", gs.Group, len(gs.Windows))
		}
		for _, w := range gs.Windows {
			var count int64
			sum := 0.0
			minV, maxV := math.Inf(1), math.Inf(-1)
			for tm := w.T; tm < w.T+step; tm += fixStep {
				for n := lo; n < hi; n++ {
					v := fixPower(n, tm)
					sum += v
					count++
					minV = math.Min(minV, v)
					maxV = math.Max(maxV, v)
				}
			}
			if w.Count != count || math.Abs(w.Sum-sum) > 1e-6 ||
				w.Min != minV || w.Max != maxV ||
				math.Abs(w.Mean-sum/float64(count)) > 1e-9 {
				t.Fatalf("cabinet %d window %d = %+v, want count=%d sum=%v min=%v max=%v",
					gs.Group, w.T, w, count, sum, minV, maxV)
			}
		}
	}
}

func TestRollupMSBAndFleet(t *testing.T) {
	e := testEngine(t)
	res, err := e.Rollup(context.Background(), RollupRequest{
		Dataset: "node-power", Column: "input_power.mean",
		Group: GroupMSB, T0: 0, T1: 3600, Step: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 cabinets over 5 MSBs: MSB A and MSB B get one each.
	if len(res.Series) != 2 || res.Series[0].Label != "MSB A" || res.Series[1].Label != "MSB B" {
		t.Fatalf("MSB series = %+v", res.Series)
	}
	fleet, err := e.Rollup(context.Background(), RollupRequest{
		Dataset: "node-power", Column: "input_power.mean",
		Group: GroupFleet, T0: 0, T1: 3600, Step: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.Series) != 1 || fleet.Series[0].Label != "fleet" {
		t.Fatalf("fleet series = %+v", fleet.Series)
	}
	// Fleet sum of one window must equal the summed MSB windows.
	var msbSum float64
	for _, gs := range res.Series {
		msbSum += gs.Windows[0].Sum
	}
	if math.Abs(fleet.Series[0].Windows[0].Sum-msbSum) > 1e-6 {
		t.Errorf("fleet sum %v != MSB total %v", fleet.Series[0].Windows[0].Sum, msbSum)
	}
}

func TestRollupErrors(t *testing.T) {
	ctx := context.Background()
	e := testEngine(t)
	if _, err := e.Rollup(ctx, RollupRequest{
		Dataset: "node-power", Column: "input_power.mean",
		Group: "row", T0: 0, T1: 3600, Step: 600,
	}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown group: %v", err)
	}
	if _, err := e.Rollup(ctx, RollupRequest{
		Dataset: "node-power", Column: "input_power.mean",
		Group: GroupCabinet, T0: 0, T1: 3600, Step: 0,
	}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("zero step: %v", err)
	}
	if _, err := e.Rollup(ctx, RollupRequest{
		Dataset: "cluster-power", Column: "sum_inp",
		Group: GroupCabinet, T0: 0, T1: 3600, Step: 600,
	}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("rollup without node column: %v", err)
	}
}

// TestRollupNodeOutsideFloor: a node-power row whose node the run-meta's
// floor does not hold — here a 4-node run-meta over 20 nodes of data — is a
// refused request naming the node, never an index out of range.
func TestRollupNodeOutsideFloor(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)
	commitArchive(t, dir, 4)
	small, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, err = small.Rollup(context.Background(), RollupRequest{
		Dataset: "node-power", Column: "input_power.mean",
		Group: GroupCabinet, T0: 0, T1: 3600, Step: 600,
	})
	if !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), "4-node floor") {
		t.Errorf("undersized floor: %v", err)
	}
}
