package source_test

import (
	"math"
	"testing"

	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tsagg"
)

// TestRollupReducerAnyRowOrder: a day table arrives in time order and the
// reducer keeps the window it is in at hand, but Add takes rows of any window
// in any order. Rows that hop between windows — forwards, backwards, back
// into a window already left, and through the window at t = 0 the zero cursor
// starts on — must leave exactly the accumulators of a plain map fold fed the
// same sequence: one lookup per (kind, group, window) per row, no cursor.
func TestRollupReducerAnyRowOrder(t *testing.T) {
	tcfg, err := topology.PresetScaled("", 36)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := topology.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"a", "b"}
	for _, nilFloor := range []bool{false, true} {
		var fl *topology.Floor
		if !nilFloor {
			fl = floor
		}
		red := source.NewRollupReducer(fl, cols)
		type key struct{ kind, group, window int64 }
		want := map[key][]stats.Moments{}
		fold := func(k key, vals []float64) {
			if want[k] == nil {
				want[k] = make([]stats.Moments, len(cols))
			}
			for i, v := range vals {
				want[k][i].Add(v)
			}
		}
		// Five windows visited in a fixed scramble, 400 rows; the stride walks
		// every node through every window several times.
		windows := []int64{3, 0, 4, 0, 1, 3, 3, 2, 0, 4, 1}
		for i := 0; i < 400; i++ {
			w := windows[i%len(windows)] * source.RollupStepSec
			ts, node := w+int64(i*7%600), int64(i*5%36)
			vals := []float64{math.Sin(float64(i)) * 1e3, float64(i%13) / 7}
			if err := red.Add(ts, node, vals); err != nil {
				t.Fatal(err)
			}
			w = ts - tsagg.FloorMod(ts, source.RollupStepSec)
			if fl != nil {
				fold(key{source.RollupKindCabinet, int64(fl.Cabinet(topology.NodeID(node))), w}, vals)
				fold(key{source.RollupKindMSB, int64(fl.MSBOf(topology.NodeID(node))), w}, vals)
			}
			fold(key{source.RollupKindFleet, 0, w}, vals)
		}
		tab := red.Table()
		if tab.NumRows() != len(want) {
			t.Fatalf("nil floor %v: %d accumulator rows, map fold has %d", nilFloor, tab.NumRows(), len(want))
		}
		for row := 0; row < tab.NumRows(); row++ {
			k := key{tab.Col(source.RollupColKind).Ints[row], tab.Col(source.RollupColGroup).Ints[row], tab.Col(source.RollupColWindow).Ints[row]}
			ms := want[k]
			if ms == nil {
				t.Fatalf("row %d: accumulator %+v is not in the map fold", row, k)
			}
			for c, name := range cols {
				n, mn, mx, mean, m2 := ms[c].State()
				cn, cmn, cmx, cmean, cm2 := source.RollupStatCols(name)
				got := []float64{tab.Col(cmn).Floats[row], tab.Col(cmx).Floats[row], tab.Col(cmean).Floats[row], tab.Col(cm2).Floats[row]}
				if tab.Col(cn).Ints[row] != n {
					t.Fatalf("%+v column %s: count %d, map fold %d", k, name, tab.Col(cn).Ints[row], n)
				}
				for s, w := range []float64{mn, mx, mean, m2} {
					if math.Float64bits(got[s]) != math.Float64bits(w) {
						t.Fatalf("%+v column %s stat %d: %v, map fold %v", k, name, s, got[s], w)
					}
				}
			}
		}
	}
}
