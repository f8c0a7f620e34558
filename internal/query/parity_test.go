package query

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/tsagg"
)

// writePreaggCompanion persists the node-power pre-aggregate companions the
// collector would have written: the same rows, in the same file order,
// folded through the same reducer, each appended to its day's file.
func writePreaggCompanion(t testing.TB, dir string) { writeCompanions(t, dir, false) }

// writeLegacyPreaggCompanion writes the same companions as the separate
// node-power.rollup dataset earlier builds wrote beside the base days.
func writeLegacyPreaggCompanion(t testing.TB, dir string) { writeCompanions(t, dir, true) }

func writeCompanions(t testing.TB, dir string, legacy bool) {
	t.Helper()
	tcfg, err := topology.PresetScaled("", fixNodes)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := topology.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := store.NewDataset(dir, "node-power")
	if err != nil {
		t.Fatal(err)
	}
	rds, err := store.NewDataset(dir, source.RollupDatasetName("node-power"))
	if err != nil {
		t.Fatal(err)
	}
	days, err := base.Days()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 1)
	for _, day := range days {
		tab, err := base.ReadDay(day)
		if err != nil {
			t.Fatal(err)
		}
		ts, node := tab.Col("timestamp").Ints, tab.Col("node").Ints
		mean := tab.Col("input_power.mean").Floats
		red := source.NewRollupReducer(floor, []string{"input_power.mean"})
		for i := range ts {
			vals[0] = mean[i]
			if err := red.Add(ts[i], node[i], vals); err != nil {
				t.Fatal(err)
			}
		}
		if legacy {
			err = rds.WriteDayCodec(day, red.Table(), store.CodecGorilla)
		} else {
			err = appendCompanion(base, day, tab, red.Table())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// appendCompanion re-writes one day of base as tab followed by the
// companion comp, the way source.NodeDayWriter writes a day with a floor.
func appendCompanion(base *store.Dataset, day int, tab, comp *store.Table) error {
	return base.WriteDayFunc(day, func(w io.Writer) error {
		if err := store.WriteCodec(w, tab, store.CodecDelta); err != nil {
			return err
		}
		return store.WriteCodec(w, comp, store.CodecGorilla)
	})
}

// diffRollup reports the first bitwise divergence between two rollup
// results, or "" when they are identical (tolerance 0).
func diffRollup(a, b *RollupResult) string {
	if len(a.Series) != len(b.Series) {
		return fmt.Sprintf("series count %d != %d", len(a.Series), len(b.Series))
	}
	for i := range a.Series {
		ga, gb := a.Series[i], b.Series[i]
		if ga.Group != gb.Group || ga.Label != gb.Label {
			return fmt.Sprintf("series %d identity (%d,%q) != (%d,%q)", i, ga.Group, ga.Label, gb.Group, gb.Label)
		}
		if len(ga.Windows) != len(gb.Windows) {
			return fmt.Sprintf("series %d window count %d != %d", i, len(ga.Windows), len(gb.Windows))
		}
		for j := range ga.Windows {
			wa, wb := ga.Windows[j], gb.Windows[j]
			if wa.T != wb.T || wa.Count != wb.Count ||
				math.Float64bits(wa.Min) != math.Float64bits(wb.Min) ||
				math.Float64bits(wa.Max) != math.Float64bits(wb.Max) ||
				math.Float64bits(wa.Mean) != math.Float64bits(wb.Mean) ||
				math.Float64bits(wa.Sum) != math.Float64bits(wb.Sum) {
				return fmt.Sprintf("series %d window %d: %+v != %+v", i, j, wa, wb)
			}
		}
	}
	return ""
}

// TestGoldenThreePathParity pins the central correctness claim of the read
// path: range and rollup answers are byte-identical — tolerance 0 — whether
// a partition streams through the aggregate-during-decode iterator (first
// touch), is materialized and admitted (second), is read resident (third),
// or the query reads persisted pre-aggregates, at every worker count.
func TestGoldenThreePathParity(t *testing.T) {
	dirScan := t.TempDir()
	writeTestArchive(t, dirScan)
	dirPre := t.TempDir()
	writeTestArchive(t, dirPre)
	writePreaggCompanion(t, dirPre)

	ctx := context.Background()
	rollupReqs := []RollupRequest{
		{Dataset: "node-power", Column: "input_power.mean", Group: GroupCabinet, T0: 0, T1: 2 * daySec, Step: 600},
		{Dataset: "node-power", Column: "input_power.mean", Group: GroupMSB, T0: 0, T1: 2 * daySec, Step: 600},
		{Dataset: "node-power", Column: "input_power.mean", Group: GroupFleet, T0: 600, T1: daySec, Step: 600},
	}
	rangeReq := RangeRequest{Dataset: "node-power", Column: "input_power.mean", Node: 3, T0: 0, T1: 2 * daySec, Step: 600}
	// Fleet-wide ranges on the pre-aggregation grid ride the companions when
	// the bounds cannot split a window.
	fleetRanges := []struct {
		name   string
		t0, t1 int64
		preagg bool
	}{
		{"aligned", 0, daySec, true},
		{"cross-day", daySec - 1200, daySec + 1800, true},
		{"beyond span", -50, math.MaxInt64, true},
		{"unaligned", 50, 2*daySec - 50, false},
	}
	refFleet := make([]*RangeResult, len(fleetRanges))
	touchNames := []string{"stream", "admit", "hit"}

	var refRollups []*RollupResult
	var refRange *RangeResult
	for _, workers := range []int{1, 2, 7} {
		open := func(dir string) *Engine {
			e, err := Open(Config{Dir: dir, Nodes: fixNodes, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		paths := []struct {
			name   string
			e      *Engine
			preagg bool
		}{
			{"scan", open(dirScan), false},
			{"preagg", open(dirPre), true},
		}
		for _, p := range paths {
			for i, req := range rollupReqs {
				p.e.FlushCache() // each request walks stream / admit / hit from cold
				for _, touch := range touchNames {
					res, err := p.e.Rollup(ctx, req)
					if err != nil {
						t.Fatalf("workers=%d %s/%s rollup %d: %v", workers, p.name, touch, i, err)
					}
					if res.Stats.Preagg != p.preagg {
						t.Fatalf("workers=%d %s/%s rollup %d: preagg=%v, want %v",
							workers, p.name, touch, i, res.Stats.Preagg, p.preagg)
					}
					if len(refRollups) <= i {
						refRollups = append(refRollups, res)
						continue
					}
					if d := diffRollup(refRollups[i], res); d != "" {
						t.Fatalf("workers=%d %s/%s rollup %d diverges: %s", workers, p.name, touch, i, d)
					}
				}
			}
			p.e.FlushCache()
			for _, touch := range touchNames {
				res, err := p.e.Range(ctx, rangeReq)
				if err != nil {
					t.Fatalf("workers=%d %s/%s range: %v", workers, p.name, touch, err)
				}
				if want := int64(2); touch == "hit" && res.Stats.CacheHits != want {
					t.Fatalf("workers=%d %s/%s range: %d cache hits, want %d",
						workers, p.name, touch, res.Stats.CacheHits, want)
				}
				if refRange == nil {
					refRange = res
					continue
				}
				if len(res.Windows) != len(refRange.Windows) {
					t.Fatalf("workers=%d %s/%s range: %d windows, want %d",
						workers, p.name, touch, len(res.Windows), len(refRange.Windows))
				}
				for j := range res.Windows {
					a, b := refRange.Windows[j], res.Windows[j]
					if a.T != b.T || a.Count != b.Count ||
						math.Float64bits(a.Min) != math.Float64bits(b.Min) ||
						math.Float64bits(a.Max) != math.Float64bits(b.Max) ||
						math.Float64bits(a.Mean) != math.Float64bits(b.Mean) ||
						math.Float64bits(a.Std) != math.Float64bits(b.Std) {
						t.Fatalf("workers=%d %s/%s range window %d: %+v != %+v", workers, p.name, touch, j, b, a)
					}
				}
			}
		}
		for _, p := range paths {
			for i, fr := range fleetRanges {
				req := RangeRequest{Dataset: "node-power", Column: "input_power.mean", Node: -1, T0: fr.t0, T1: fr.t1, Step: 600}
				p.e.FlushCache()
				for _, touch := range touchNames {
					res, err := p.e.Range(ctx, req)
					if err != nil {
						t.Fatalf("workers=%d %s/%s fleet range %s: %v", workers, p.name, touch, fr.name, err)
					}
					if want := p.preagg && fr.preagg; res.Stats.Preagg != want {
						t.Fatalf("workers=%d %s/%s fleet range %s: preagg=%v, want %v",
							workers, p.name, touch, fr.name, res.Stats.Preagg, want)
					}
					if refFleet[i] == nil {
						refFleet[i] = res
						if len(res.Windows) == 0 || res.Windows[0].Std == 0 {
							t.Fatalf("fleet range %s: reference has %d windows; want some, with a spread", fr.name, len(res.Windows))
						}
					} else if !reflect.DeepEqual(refFleet[i].Windows, res.Windows) {
						t.Fatalf("workers=%d %s/%s fleet range %s diverges from the first answer",
							workers, p.name, touch, fr.name)
					}
				}
			}
		}
		// The scan engine took every read path: it streamed each cold touch,
		// materialized on the second and read resident tables on the third.
		met := paths[0].e.Metrics()
		if met.IterScans.Load() == 0 || met.BytesDecoded.Load() == 0 || met.CacheHits.Load() == 0 {
			t.Fatalf("workers=%d: scan engine streamed %d days, decoded %d B, hit %d times; want all > 0",
				workers, met.IterScans.Load(), met.BytesDecoded.Load(), met.CacheHits.Load())
		}
		if want := int64((len(rollupReqs) + 3) * len(touchNames)); paths[1].e.Metrics().PreaggQueries.Load() != want {
			t.Fatalf("workers=%d: preagg answered %d of %d rollups and fleet ranges",
				workers, paths[1].e.Metrics().PreaggQueries.Load(), want)
		}
	}
}

// TestPreaggFallsBackWhenUnaligned pins the safety gate: a window or range
// boundary the pre-aggregates cannot express must fall back to the scan
// path, never return a partial-window answer.
func TestPreaggFallsBackWhenUnaligned(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)
	writePreaggCompanion(t, dir)
	e, err := Open(Config{Dir: dir, Nodes: fixNodes})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		name string
		req  RollupRequest
		want bool
	}{
		{"aligned", RollupRequest{Dataset: "node-power", Column: "input_power.mean",
			Group: GroupFleet, T0: 0, T1: daySec, Step: 600}, true},
		{"span beyond data", RollupRequest{Dataset: "node-power", Column: "input_power.mean",
			Group: GroupFleet, T0: 0, T1: math.MaxInt64, Step: 600}, true},
		{"unaligned t0", RollupRequest{Dataset: "node-power", Column: "input_power.mean",
			Group: GroupFleet, T0: 50, T1: daySec, Step: 600}, false},
		{"unaligned t1", RollupRequest{Dataset: "node-power", Column: "input_power.mean",
			Group: GroupFleet, T0: 0, T1: daySec - 50, Step: 600}, false},
		{"foreign step", RollupRequest{Dataset: "node-power", Column: "input_power.mean",
			Group: GroupFleet, T0: 0, T1: daySec, Step: 1200}, false},
	}
	for _, tc := range cases {
		res, err := e.Rollup(ctx, tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Stats.Preagg != tc.want {
			t.Errorf("%s: preagg=%v, want %v", tc.name, res.Stats.Preagg, tc.want)
		}
		// A fleet-wide range passes through the same gate.
		rr := RangeRequest{Dataset: tc.req.Dataset, Column: tc.req.Column, Node: -1,
			T0: tc.req.T0, T1: tc.req.T1, Step: tc.req.Step}
		rres, err := e.Range(ctx, rr)
		if err != nil {
			t.Fatalf("range %s: %v", tc.name, err)
		}
		if rres.Stats.Preagg != tc.want {
			t.Errorf("range %s: preagg=%v, want %v", tc.name, rres.Stats.Preagg, tc.want)
		}
		if _, want := oracleRange(t, dir, rr); diffRange(rres, nil, want) != "" {
			t.Errorf("range %s: %s", tc.name, diffRange(rres, nil, want))
		}
	}
	// One node's range is no fleet accumulator.
	res, err := e.Range(ctx, RangeRequest{Dataset: "node-power", Column: "input_power.mean", Node: 3, T0: 0, T1: daySec, Step: 600})
	if err != nil || res.Stats.Preagg {
		t.Errorf("node range: preagg=%v, err %v; want a scan", res.Stats.Preagg, err)
	}
}

// TestWindowsInOrder pins the split-window gate between a windowed read and
// the pre-aggregates: each partition opening in a later window than its
// predecessor closed in, sorted or not.
func TestWindowsInOrder(t *testing.T) {
	day := func(min, max int64, sorted bool) store.DayMeta {
		return store.DayMeta{HasTime: true, MinTime: min, MaxTime: max, TimeSorted: sorted}
	}
	cases := []struct {
		name string
		days []store.DayMeta
		want bool
	}{
		{"none", nil, true},
		{"one sorted", []store.DayMeta{day(0, 86390, true)}, true},
		{"one unsorted", []store.DayMeta{day(0, 86390, false)}, true},
		{"back to back", []store.DayMeta{day(0, 86390, true), day(86400, 172790, true)}, true},
		{"negative times", []store.DayMeta{day(-1200, -610, true), day(-600, -10, true)}, true},
		{"opens inside its predecessor's span", []store.DayMeta{day(0, 86390, true), day(81400, 172790, true)}, false},
		{"opens in its predecessor's last window", []store.DayMeta{day(0, 86000, true), day(86390, 172790, true)}, false},
		{"second unsorted", []store.DayMeta{day(0, 86390, true), day(86400, 172790, false)}, true},
		{"no time span", []store.DayMeta{{TimeSorted: true}}, false},
	}
	for _, tc := range cases {
		if got := windowsInOrder(tc.days, 600); got != tc.want {
			t.Errorf("%s: windowsInOrder = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// seamSpans are the spans of the seam archive the pre-aggregate gate
// decides on, and whether it admits the companions for each: a window whose
// rows lie in two partitions (day 2 opens inside day 1's span) is refused.
var seamSpans = []struct {
	name, column string
	t0, t1       int64
	preagg       bool
}{
	{"sorted day", "input_power.mean", 0, daySec, true},
	{"unsorted day", "input_power.mean", daySec, 2 * daySec, false},
	{"day opening inside the unsorted one", "input_power.mean", 2*daySec - 6000, 3 * daySec, false},
	{"the same day from its own midnight", "input_power.mean", 2 * daySec, 3 * daySec, true},
	{"two sorted days", "input_power.mean", 2 * daySec, 4 * daySec, true},
	{"jittered duplicates", "input_power.mean", 3 * daySec, math.MaxInt64, true},
	{"whole archive", "input_power.mean", -50, math.MaxInt64, false},
	{"column the companion lacks", "input_power.count", 0, daySec, false},
}

// TestRollupPreaggRefusesASplitWindow runs the seam spans as fleet, cabinet
// and MSB rollups at the pre-aggregation step, with companions present: a
// rollup takes them only where no window's rows lie in two partitions —
// merging two companion accumulators is not the scan's fold — and is the
// oracle's answer, bit for bit, at every worker count.
func TestRollupPreaggRefusesASplitWindow(t *testing.T) {
	dir := t.TempDir()
	writeSeamArchive(t, dir)
	writePreaggCompanion(t, dir)
	tcfg, err := topology.PresetScaled("", fixNodes)
	if err != nil {
		t.Fatal(err)
	}
	floor := topology.MustNew(tcfg)
	ctx := context.Background()
	for _, workers := range []int{1, 2, 7} {
		e, err := Open(Config{Dir: dir, Nodes: fixNodes, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range seamSpans {
			for _, group := range []GroupBy{GroupFleet, GroupCabinet, GroupMSB} {
				req := RollupRequest{Dataset: "node-power", Column: sp.column, Group: group,
					T0: sp.t0, T1: sp.t1, Step: source.RollupStepSec}
				ro, err := e.Rollup(ctx, req)
				if err != nil {
					t.Fatalf("workers=%d %s %s: %v", workers, sp.name, group, err)
				}
				if ro.Stats.Preagg != sp.preagg {
					t.Errorf("workers=%d %s %s: preagg=%v, want %v", workers, sp.name, group, ro.Stats.Preagg, sp.preagg)
				}
				if d := diffRollup(&RollupResult{Series: oracleRollup(t, dir, floor, req)}, ro); d != "" {
					t.Errorf("workers=%d %s %s: %s", workers, sp.name, group, d)
				}
			}
		}
	}
}

// TestFleetRangeIsTheFleetRollup: every windowed read folds each row into
// the window its timestamp names, so on the seam archive — stragglers,
// an unsorted day, a window split over two partitions — a fleet-wide range
// is the fleet rollup window for window, on and off the pre-aggregation
// grid, at every worker count.
func TestFleetRangeIsTheFleetRollup(t *testing.T) {
	dir := t.TempDir()
	writeSeamArchive(t, dir)
	writePreaggCompanion(t, dir)
	ctx := context.Background()
	for _, workers := range []int{1, 2, 7} {
		e, err := Open(Config{Dir: dir, Nodes: fixNodes, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range seamSpans {
			for _, step := range []int64{7, 60, 600, 777, 1800, 86400} {
				name := fmt.Sprintf("workers=%d %s step %d", workers, sp.name, step)
				res, err := e.Range(ctx, RangeRequest{Dataset: "node-power", Column: sp.column, Node: -1,
					T0: sp.t0, T1: sp.t1, Step: step})
				if err != nil {
					t.Fatalf("%s: range: %v", name, err)
				}
				ro, err := e.Rollup(ctx, RollupRequest{Dataset: "node-power", Column: sp.column, Group: GroupFleet,
					T0: sp.t0, T1: sp.t1, Step: step})
				if err != nil {
					t.Fatalf("%s: rollup: %v", name, err)
				}
				if len(ro.Series) != 1 || len(ro.Series[0].Windows) != len(res.Windows) {
					t.Fatalf("%s: %d range windows, rollup %+v", name, len(res.Windows), ro.Series)
				}
				for i, w := range ro.Series[0].Windows {
					if r := res.Windows[i]; r.T != w.T || r.Count != w.Count || !bitsEq(r.Min, w.Min) ||
						!bitsEq(r.Max, w.Max) || !bitsEq(r.Mean, w.Mean) {
						t.Fatalf("%s: window %d: range %+v, rollup %+v", name, i, r, w)
					}
				}
			}
		}
	}
}

// TestFleetRangePreaggRefusals walks the seam archive (an unsorted day, a day
// that opens inside its predecessor's span) with companions present: the
// fleet range takes them only where no window's rows lie in two partitions,
// and is the oracle's answer either way. A column the companion lacks and a companion on a
// foreign grid fall back too, as do a day re-written without its companion
// (the old one goes with it: nothing stale is ever served) and an archive
// whose companions are the separate files earlier builds wrote.
func TestFleetRangePreaggRefusals(t *testing.T) {
	dir := t.TempDir()
	writeSeamArchive(t, dir)
	writePreaggCompanion(t, dir)
	ctx := context.Background()
	check := func(e *Engine, name, column string, t0, t1 int64, want bool) {
		t.Helper()
		req := RangeRequest{Dataset: "node-power", Column: column, Node: -1, T0: t0, T1: t1, Step: 600}
		res, err := e.Range(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.Preagg != want {
			t.Errorf("%s: preagg=%v, want %v", name, res.Stats.Preagg, want)
		}
		if _, ws := oracleRange(t, dir, req); diffRange(res, nil, ws) != "" {
			t.Errorf("%s: %s", name, diffRange(res, nil, ws))
		}
	}
	for _, workers := range []int{1, 2, 7} {
		e, err := Open(Config{Dir: dir, Nodes: fixNodes, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		const mean = "input_power.mean"
		check(e, "sorted day", mean, 0, daySec, true)
		check(e, "unsorted day", mean, daySec, 2*daySec, false)
		check(e, "day opening inside the unsorted one", mean, 2*daySec-6000, 3*daySec, false)
		check(e, "the same day from its own midnight", mean, 2*daySec, 3*daySec, true)
		check(e, "two sorted days", mean, 2*daySec, 4*daySec, true)
		check(e, "jittered duplicates", mean, 3*daySec, math.MaxInt64, true)
		check(e, "whole archive", mean, -50, math.MaxInt64, false)
		check(e, "column the companion lacks", "input_power.count", 0, daySec, false)
	}
	// A companion aggregated on another grid is refused row by row.
	base, err := store.NewDataset(dir, "node-power")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := base.ReadDay(0)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := base.Companion(source.RollupDatasetName("node-power")).ReadDay(0)
	if err != nil {
		t.Fatal(err)
	}
	step := comp.Col(source.RollupColStep).Ints
	for i := range step {
		step[i] = 1200
	}
	if err := appendCompanion(base, 0, tab, comp); err != nil {
		t.Fatal(err)
	}
	e, err := Open(Config{Dir: dir, Nodes: fixNodes})
	if err != nil {
		t.Fatal(err)
	}
	check(e, "foreign step_sec", "input_power.mean", 0, daySec, false)

	// Three days archived with their companions, then day 1 re-written with
	// every value shifted and no floor: its file now holds the base alone.
	stale := t.TempDir()
	tcfg, err := topology.PresetScaled("", fixNodes)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := topology.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	writeDays := func(dir string, days int, shift float64, floor *topology.Floor) {
		w := source.NewNodeDayWriter(dir, fixNodes, floor)
		var rows []source.NodeWindow
		for tm := int64(0); tm < int64(days)*daySec; tm += source.RollupStepSec {
			for n := 0; n < fixNodes; n++ {
				v := fixPower(int64(n), tm) + shift
				rows = append(rows, source.NodeWindow{Node: int64(n), Stat: tsagg.WindowStat{T: tm, Count: 60, Min: v - 1, Max: v + 2, Mean: v, Std: 0.5}})
			}
		}
		if err := w.Append(rows); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeDays(stale, 3, 0, floor)
	shifted := t.TempDir()
	writeDays(shifted, 2, 250, nil)
	day1 := (&store.Dataset{Dir: stale, Name: "node-power"}).DayFile(1)
	if err := os.Rename(filepath.Join(shifted, day1), filepath.Join(stale, day1)); err != nil {
		t.Fatal(err)
	}
	commitArchive(t, stale, fixNodes)
	e, err = Open(Config{Dir: stale, Nodes: fixNodes})
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range []struct {
		name   string
		t1     int64
		preagg bool
	}{{"days 0-2, day 1 re-written", 3 * daySec, false}, {"day 0 alone", daySec, true}} {
		rreq := RollupRequest{Dataset: "node-power", Column: "input_power.mean", Group: GroupFleet, T0: 0, T1: span.t1, Step: 600}
		ro, err := e.Rollup(ctx, rreq)
		if err != nil {
			t.Fatal(err)
		}
		if ro.Stats.Preagg != span.preagg {
			t.Errorf("%s: rollup preagg=%v, want %v", span.name, ro.Stats.Preagg, span.preagg)
		}
		if d := diffRollup(&RollupResult{Series: oracleRollup(t, stale, floor, rreq)}, ro); d != "" {
			t.Errorf("%s: rollup: %s", span.name, d)
		}
		req := RangeRequest{Dataset: "node-power", Column: "input_power.mean", Node: -1, T0: 0, T1: span.t1, Step: 600}
		res, err := e.Range(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Preagg != span.preagg {
			t.Errorf("%s: range preagg=%v, want %v", span.name, res.Stats.Preagg, span.preagg)
		}
		if _, ws := oracleRange(t, stale, req); diffRange(res, nil, ws) != "" {
			t.Errorf("%s: range: %s", span.name, diffRange(res, nil, ws))
		}
	}

	// Companions as earlier builds wrote them, a dataset of their own, are
	// never read for pre-aggregates: the archive scans, and lists them.
	legacy := t.TempDir()
	writeTestArchive(t, legacy)
	writeLegacyPreaggCompanion(t, legacy)
	e, err = Open(Config{Dir: legacy, Nodes: fixNodes})
	if err != nil {
		t.Fatal(err)
	}
	rreq := RollupRequest{Dataset: "node-power", Column: "input_power.mean", Group: GroupFleet, T0: 0, T1: daySec, Step: 600}
	ro, err := e.Rollup(ctx, rreq)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffRollup(&RollupResult{Series: oracleRollup(t, legacy, floor, rreq)}, ro); ro.Stats.Preagg || d != "" {
		t.Errorf("legacy companions: preagg=%v, want a scan equal to the oracle (%s)", ro.Stats.Preagg, d)
	}
	infos, err := e.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	listed := false
	for _, info := range infos {
		listed = listed || info.Name == source.RollupDatasetName("node-power")
	}
	if !listed {
		t.Errorf("legacy companions: node-power.rollup is not listed as a dataset: %+v", infos)
	}
}
