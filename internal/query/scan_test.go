package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/tsagg"
)

// --- test-only oracles: the engine's pre-sink read path, serial ---

// oracleTables decodes a dataset once per test, days ascending.
var oracleTables = map[string][]*store.Table{}

// oracleRows visits every row of a dataset in archive order: days
// ascending, rows in file order — the order a one-worker scan sees.
func oracleRows(t testing.TB, dir, dataset, column string, fn func(ts, node int64, v float64)) {
	t.Helper()
	tabs, ok := oracleTables[dir+"/"+dataset]
	if !ok {
		ds, err := store.NewDataset(dir, dataset)
		if err != nil {
			t.Fatal(err)
		}
		days, err := ds.Days()
		if err != nil {
			t.Fatal(err)
		}
		for _, day := range days {
			tab, err := ds.ReadDay(day)
			if err != nil {
				t.Fatal(err)
			}
			tabs = append(tabs, tab)
		}
		oracleTables[dir+"/"+dataset] = tabs
	}
	for _, tab := range tabs {
		times, val := tab.Col("timestamp").Ints, tab.Col(column)
		var nodes []int64
		if c := tab.Col("node"); c != nil {
			nodes = c.Ints
		}
		for i, tm := range times {
			n := int64(-1)
			if nodes != nil {
				n = nodes[i]
			}
			if val.IsInt() {
				fn(tm, n, float64(val.Ints[i]))
			} else {
				fn(tm, n, val.Floats[i])
			}
		}
	}
}

// oracleRange is the legacy range path: collect every matching sample,
// then tsagg.Coarsen.
func oracleRange(t testing.TB, dir string, req RangeRequest) ([]Point, []tsagg.WindowStat) {
	var samples []tsagg.Sample
	oracleRows(t, dir, req.Dataset, req.Column, func(ts, node int64, v float64) {
		if ts >= req.T0 && ts < req.T1 && (req.Node < 0 || node == req.Node) {
			samples = append(samples, tsagg.Sample{T: ts, V: v})
		}
	})
	if req.Step > 0 {
		return nil, tsagg.Coarsen(samples, req.Step)
	}
	pts := make([]Point, len(samples))
	for i, s := range samples {
		pts[i] = Point{T: s.T, V: s.V}
	}
	return pts, nil
}

// oracleRollup is the legacy rollup path: one map of accumulators keyed by
// (group, window), one stats.Moments.Add per row, sorted at the end.
func oracleRollup(t testing.TB, dir string, floor *topology.Floor, req RollupRequest) []GroupSeries {
	type key struct {
		group  int
		window int64
	}
	acc := map[key]*stats.Moments{}
	oracleRows(t, dir, req.Dataset, req.Column, func(ts, node int64, v float64) {
		if ts < req.T0 || ts >= req.T1 {
			return
		}
		g := 0
		switch req.Group {
		case GroupCabinet:
			g = floor.Cabinet(topology.NodeID(node))
		case GroupMSB:
			g = int(floor.MSBOf(topology.NodeID(node)))
		}
		k := key{g, ts - tsagg.FloorMod(ts, req.Step)}
		if acc[k] == nil {
			acc[k] = &stats.Moments{}
		}
		acc[k].Add(v)
	})
	byGroup := map[int][]RollupWindow{}
	for k, m := range acc {
		byGroup[k.group] = append(byGroup[k.group], RollupWindow{
			T: k.window, Count: m.N, Min: m.Min, Max: m.Max, Mean: m.Mean(), Sum: m.Sum()})
	}
	var out []GroupSeries
	for g, ws := range byGroup {
		sort.Slice(ws, func(i, j int) bool { return ws[i].T < ws[j].T })
		out = append(out, GroupSeries{Group: g, Label: groupLabel(req.Group, g), Windows: ws})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffRange reports the first bitwise divergence of a range answer from
// its oracle, or "".
func diffRange(res *RangeResult, pts []Point, ws []tsagg.WindowStat) string {
	if len(res.Points) != len(pts) || len(res.Windows) != len(ws) {
		return fmt.Sprintf("%d points / %d windows, want %d / %d", len(res.Points), len(res.Windows), len(pts), len(ws))
	}
	for i, p := range pts {
		if q := res.Points[i]; q.T != p.T || !bitsEq(q.V, p.V) {
			return fmt.Sprintf("point %d: %+v != %+v", i, q, p)
		}
	}
	for i, w := range ws {
		if q := res.Windows[i]; q.T != w.T || q.Count != w.Count || !bitsEq(q.Min, w.Min) ||
			!bitsEq(q.Max, w.Max) || !bitsEq(q.Mean, w.Mean) || !bitsEq(q.Std, w.Std) {
			return fmt.Sprintf("window %d: %+v != %+v", i, q, w)
		}
	}
	return ""
}

// --- the fixture: every shape the sinks special-case ---

const seamDays = 4

// writeSeamArchive writes a node-power dataset (float and integer value
// columns) whose partitions exercise each sink form: day 0 is regular and
// sorted; day 1 is written node-major, so its time column is unsorted and
// most of its rows are stamped before the row ahead of them; day 2 is sorted
// but opens with rows stamped back inside day 1's span, so a chunk seam
// meets a window already open in an earlier chunk; day 3 is sorted with
// duplicate timestamps jittered off the grid.
// cluster-power carries no node column.
func writeSeamArchive(t testing.TB, dir string) {
	t.Helper()
	nodeDS, err := store.NewDataset(dir, "node-power")
	if err != nil {
		t.Fatal(err)
	}
	clusterDS, err := store.NewDataset(dir, "cluster-power")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for day := int64(0); day < seamDays; day++ {
		var ts, node, count, cts []int64
		var val, sum []float64
		row := func(tm, n int64) {
			ts, node = append(ts, tm), append(node, n)
			val = append(val, fixPower(n, tm)+rng.Float64())
			count = append(count, 1+rng.Int63n(9))
		}
		switch day {
		case 1:
			for n := int64(0); n < fixNodes; n++ {
				for tm := day * daySec; tm < (day+1)*daySec; tm += fixStep {
					row(tm, n)
				}
			}
		default:
			if day == 2 {
				for n := int64(0); n < fixNodes; n++ {
					row(day*daySec-5000+n*7, n)
				}
			}
			for tm := day * daySec; tm < (day+1)*daySec; tm += fixStep {
				for n := int64(0); n < fixNodes; n++ {
					if day == 3 {
						row(tm+n/7, n)
					} else {
						row(tm, n)
					}
				}
			}
		}
		for tm := day * daySec; tm < (day+1)*daySec; tm += fixStep {
			cts, sum = append(cts, tm), append(sum, 1e5+rng.Float64())
		}
		if err := nodeDS.WriteDay(int(day), &store.Table{Cols: []store.Column{
			{Name: "timestamp", Ints: ts}, {Name: "node", Ints: node},
			{Name: "input_power.mean", Floats: val}, {Name: "input_power.count", Ints: count},
		}}); err != nil {
			t.Fatal(err)
		}
		if err := clusterDS.WriteDay(int(day), &store.Table{Cols: []store.Column{
			{Name: "timestamp", Ints: cts}, {Name: "sum_inp", Floats: sum},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	commitArchive(t, dir, fixNodes)
}

func TestDayMetaRecordsTimeSorted(t *testing.T) {
	dir := t.TempDir()
	writeSeamArchive(t, dir)
	ds, err := store.NewDataset(dir, "node-power")
	if err != nil {
		t.Fatal(err)
	}
	for day, want := range []bool{true, false, true, true} {
		m, err := ds.DayMeta(day)
		if err != nil {
			t.Fatal(err)
		}
		if m.TimeSorted != want {
			t.Errorf("day %d: TimeSorted = %v, want %v", day, m.TimeSorted, want)
		}
	}
}

// TestSinksMatchLegacyOracles property-tests the fused scan against the
// collect-then-Coarsen and map-accumulator oracles at tolerance 0: seeded
// random ranges, steps that straddle day and chunk seams, node filters and
// groupings, float and integer columns, every worker count, and each read
// path (streaming iterator, freshly materialized, resident).
func TestSinksMatchLegacyOracles(t *testing.T) {
	dir := t.TempDir()
	writeSeamArchive(t, dir)
	tcfg, err := topology.PresetScaled("", fixNodes)
	if err != nil {
		t.Fatal(err)
	}
	floor := topology.MustNew(tcfg)
	type engine struct {
		name string
		e    *Engine
	}
	var engines []engine
	for _, workers := range []int{1, 2, 7} {
		e, err := Open(Config{Dir: dir, Nodes: fixNodes, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, engine{fmt.Sprintf("workers=%d", workers), e})
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	steps := []int64{0, 7, 60, 600, 777, 1800, 10000, 86400, 100000}
	groups := []GroupBy{GroupCabinet, GroupMSB, GroupFleet}
	columns := []string{"input_power.mean", "input_power.count"}
	n := 40
	if testing.Short() {
		n = 12
	}
	for q := 0; q < n; q++ {
		t0 := rng.Int63n(seamDays*daySec+2000) - 1000
		t1 := t0 + 1 + rng.Int63n(seamDays*daySec)
		if q%5 == 0 {
			t0, t1 = -50, math.MaxInt64
		}
		rreq := RangeRequest{Dataset: "node-power", Column: columns[rng.Intn(2)], Node: -1,
			T0: t0, T1: t1, Step: steps[rng.Intn(len(steps))]}
		if rng.Intn(2) == 0 {
			rreq.Node = rng.Int63n(fixNodes)
		}
		if q%7 == 3 {
			rreq.Dataset, rreq.Column, rreq.Node = "cluster-power", "sum_inp", -1
		}
		wantPts, wantWs := oracleRange(t, dir, rreq)
		oreq := RollupRequest{Dataset: "node-power", Column: columns[rng.Intn(2)],
			Group: groups[rng.Intn(3)], T0: t0, T1: t1, Step: steps[1+rng.Intn(len(steps)-1)]}
		wantSeries := oracleRollup(t, dir, floor, oreq)
		for _, en := range engines {
			en.e.FlushCache() // first touch streams, second materializes, third hits
			for touch := 0; touch < 3; touch++ {
				res, err := en.e.Range(ctx, rreq)
				if err != nil {
					t.Fatalf("%s touch %d range %+v: %v", en.name, touch, rreq, err)
				}
				if d := diffRange(res, wantPts, wantWs); d != "" {
					t.Fatalf("%s touch %d range %+v: %s", en.name, touch, rreq, d)
				}
				ro, err := en.e.Rollup(ctx, oreq)
				if err != nil {
					t.Fatalf("%s touch %d rollup %+v: %v", en.name, touch, oreq, err)
				}
				if d := diffRollup(&RollupResult{Series: wantSeries}, ro); d != "" {
					t.Fatalf("%s touch %d rollup %+v: %s", en.name, touch, oreq, d)
				}
			}
		}
	}
	for _, en := range engines {
		if en.e.Metrics().IterScans.Load() == 0 {
			t.Errorf("%s never streamed a partition", en.name)
		}
	}
}

// TestLateSamplesLandInTheirOwnWindow pins the one window rule on a
// hand-written partition: a sample stamped before the window of the row
// ahead of it is counted into its own window, by a range and a rollup alike.
func TestLateSamplesLandInTheirOwnWindow(t *testing.T) {
	dir := t.TempDir()
	ds, err := store.NewDataset(dir, "probe")
	if err != nil {
		t.Fatal(err)
	}
	err = ds.WriteDay(0, &store.Table{Cols: []store.Column{
		{Name: "timestamp", Ints: []int64{100, 112, 109, 125}},
		{Name: "node", Ints: []int64{0, 0, 0, 0}},
		{Name: "v", Floats: []float64{1, 2, 3, 4}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	commitArchive(t, dir, 1)
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := e.Range(ctx, RangeRequest{Dataset: "probe", Column: "v", Node: -1, T0: 0, T1: 1000, Step: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 3 || res.Windows[0].T != 100 || res.Windows[0].Count != 2 ||
		res.Windows[0].Max != 3 || res.Windows[1].Count != 1 {
		t.Errorf("range windows = %+v, want the late sample in its own 100 window", res.Windows)
	}
	ro, err := e.Rollup(ctx, RollupRequest{Dataset: "probe", Column: "v", Group: GroupFleet, T0: 0, T1: 1000, Step: 10})
	if err != nil {
		t.Fatal(err)
	}
	ws := ro.Series[0].Windows
	if len(ws) != len(res.Windows) {
		t.Fatalf("rollup windows = %+v, range windows = %+v", ws, res.Windows)
	}
	for i, w := range ws {
		if r := res.Windows[i]; r.T != w.T || r.Count != w.Count || !bitsEq(r.Min, w.Min) ||
			!bitsEq(r.Max, w.Max) || !bitsEq(r.Mean, w.Mean) {
			t.Errorf("window %d: range %+v, rollup %+v", i, r, w)
		}
	}
}

func TestSearchTime(t *testing.T) {
	ts := []int64{1, 3, 3, 3, 7, 9, 9, 12}
	for target := int64(0); target < 14; target++ {
		want := sort.Search(len(ts), func(i int) bool { return ts[i] >= target })
		for lo := 0; lo <= len(ts); lo++ {
			if got := lo + searchTime(ts[lo:], target); got != max(want, lo) {
				t.Errorf("searchTime(ts[%d:], %d) = %d, want %d", lo, target, got, max(want, lo))
			}
		}
	}
}

// --- the budget is applied before the work ---

func TestBudgetStopsTheScanEarly(t *testing.T) {
	e := testEngine(t)
	ctx := context.Background()
	dayRows := (daySec / fixStep) * fixNodes
	raw := RangeRequest{Dataset: "node-power", Column: "input_power.mean", Node: -1, T0: 0, T1: 3 * daySec}
	for touch := 0; touch < 2; touch++ { // the second touch makes every day resident
		if _, err := e.Range(ctx, raw); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Metrics().RowsScanned.Load()
	raw.Limit = 100
	if _, err := e.Range(ctx, raw); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-budget raw range: %v", err)
	}
	if got := e.Metrics().RowsScanned.Load() - before; got != 0 {
		t.Errorf("sorted unfiltered scan touched %d rows before refusing; want 0 (sized by bisection)", got)
	}
	// A node filter forces the per-row form: it stops at budget+1 matches,
	// inside the first day of its chunk.
	before = e.Metrics().RowsScanned.Load()
	raw.Node = 3
	if _, err := e.Range(ctx, raw); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-budget filtered range: %v", err)
	}
	if got := e.Metrics().RowsScanned.Load() - before; got > dayRows {
		t.Errorf("filtered scan booked %d rows before refusing; want at most one chunk-day (%d)", got, dayRows)
	}
	// Exactly at the budget the answer is unchanged.
	raw.Limit = int(3 * daySec / fixStep)
	res, err := e.Range(ctx, raw)
	if err != nil || len(res.Points) != raw.Limit {
		t.Fatalf("at-budget range: %d points, err %v", len(res.Points), err)
	}
	// Rollup: windows x floor groups is refused from metadata alone.
	before = e.Metrics().RowsScanned.Load()
	ro := RollupRequest{Dataset: "node-power", Column: "input_power.mean", Group: GroupCabinet,
		T0: 0, T1: 3 * daySec, Step: 600, Limit: 431}
	if _, err := e.Rollup(ctx, ro); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-budget rollup: %v", err)
	}
	if got := e.Metrics().RowsScanned.Load() - before; got != 0 {
		t.Errorf("over-budget rollup scanned %d rows", got)
	}
	ro.Limit = 432 * e.floor.Cabinets()
	if got, err := e.Rollup(ctx, ro); err != nil || len(got.Series) != e.floor.Cabinets() {
		t.Fatalf("at-budget rollup: %v", err)
	}
}

// --- allocation guard: O(windows), not O(rows) ---

// TestWarmFleetRangeAllocatesPerWindow pins the point of the fused scan: a
// warm fleet-wide day at step 600 over the benchmark's shape (64 nodes x
// 8640 samples, 553k rows) allocates a few KB of accumulators and windows —
// the collect-then-Coarsen path it replaced allocated 44.8 MB here.
func TestWarmFleetRangeAllocatesPerWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a 553k-row partition")
	}
	dir := t.TempDir()
	ds, err := store.NewDataset(dir, "node-power")
	if err != nil {
		t.Fatal(err)
	}
	const nodes, cadence = 64, 10
	rows := int(daySec / cadence * nodes)
	ts, node, val := make([]int64, 0, rows), make([]int64, 0, rows), make([]float64, 0, rows)
	for tm := int64(0); tm < daySec; tm += cadence {
		for n := int64(0); n < nodes; n++ {
			ts, node, val = append(ts, tm), append(node, n), append(val, fixPower(n, tm))
		}
	}
	if err := ds.WriteDay(0, &store.Table{Cols: []store.Column{
		{Name: "timestamp", Ints: ts}, {Name: "node", Ints: node}, {Name: "input_power.mean", Floats: val},
	}}); err != nil {
		t.Fatal(err)
	}
	commitArchive(t, dir, nodes)
	e, err := Open(Config{Dir: dir, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := RangeRequest{Dataset: "node-power", Column: "input_power.mean", Node: -1, T0: 0, T1: daySec, Step: 600}
	for touch := 0; touch < 2; touch++ { // warm: the second touch admits the day
		if _, err := e.Range(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		res, err := e.Range(ctx, req)
		if err != nil || len(res.Windows) != 144 || res.Windows[0].Count != 60*nodes {
			t.Fatalf("warm range: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 64<<10 {
		t.Errorf("warm fleet-day range allocates %d B/op, want < 64 KB", per)
	}
}
