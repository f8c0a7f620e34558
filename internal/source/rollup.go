package source

import (
	"fmt"
	"sort"

	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/tsagg"
)

// Rollup pre-aggregates: every per-node partition can carry a companion
// partition, appended to it in its file (store.Dataset.Companion), persisting
// per coarse window the exact Welford accumulator state of every float
// column for every cabinet, every main switchboard, and the fleet. The query
// tier answers aligned rollups from these rows without touching a single
// per-node row — and because the accumulator state round-trips bitwise
// (stats.Moments.State / MomentsFromState) and the reducer folds rows in the
// same order the scan path would, the answers are bit-identical to a full
// scan wherever each window's rows lie in one partition — which the query
// tier checks before it reads a companion.
const (
	// RollupStepSec is the pre-aggregation window. 600 s divides the daily
	// partition span, so no window straddles two partitions of a
	// day-aligned archive; where one does, the query tier scans it rather
	// than merge two companions' accumulators.
	RollupStepSec int64 = 600
)

// Rollup grouping kinds, stored in the kind column. They mirror the query
// tier's cabinet/MSB/fleet groupings.
const (
	RollupKindCabinet int64 = 0
	RollupKindMSB     int64 = 1
	RollupKindFleet   int64 = 2
)

// Rollup axis columns.
const (
	RollupColWindow = "window"   // window start time (seconds)
	RollupColKind   = "kind"     // RollupKind* discriminator
	RollupColGroup  = "group"    // cabinet index, MSB index, or 0 for fleet
	RollupColStep   = "step_sec" // window size the row was aggregated at
)

// RollupDatasetName names the pre-aggregate companion of a base dataset: the
// store.Dataset.Companion handle's name, and so its table-cache key.
func RollupDatasetName(base string) string { return base + ".rollup" }

// RollupStatCols returns the five persisted per-column stat names: count,
// min, max, running mean, and the Welford second moment M2.
func RollupStatCols(col string) (n, mn, mx, mean, m2 string) {
	return col + ".n", col + ".min", col + ".max", col + ".mean", col + ".m2"
}

// rollupKey addresses one accumulator row: (kind, group, window start).
type rollupKey struct {
	kind   int64
	group  int64
	window int64
}

// RollupReducer folds per-node rows into the pre-aggregate accumulators of
// one partition. Feed it every row of the day table in file order — each
// (kind, group, window) accumulator then receives exactly the Add sequence
// the query tier's scan path would produce, which is what makes answering
// from pre-aggregates bit-exact. Not safe for concurrent use.
type RollupReducer struct {
	floor *topology.Floor
	cols  []string
	acc   map[rollupKey][]stats.Moments

	// A day table is in time order, so nearly every row lands in the window
	// of the row before it: cur[kind][group] is that window's accumulator —
	// the very slice acc holds, nil until the group's first row there — and
	// the map is consulted once per (group, window), not three times per
	// row. Rows of any other window just move the cursor; every accumulator
	// sees the same Add sequence either way.
	window int64
	cur    [RollupKindFleet + 1][][]stats.Moments
}

// NewRollupReducer builds a reducer over the named value columns. floor maps
// nodes to cabinets and switchboards; nil restricts the reduction to the
// fleet kind.
func NewRollupReducer(floor *topology.Floor, cols []string) *RollupReducer {
	r := &RollupReducer{
		floor: floor,
		cols:  cols,
		acc:   make(map[rollupKey][]stats.Moments),
	}
	if floor != nil {
		r.cur[RollupKindCabinet] = make([][]stats.Moments, floor.Cabinets())
		r.cur[RollupKindMSB] = make([][]stats.Moments, floor.MSBs())
	}
	r.cur[RollupKindFleet] = make([][]stats.Moments, 1)
	return r
}

// Add folds one row — its timestamp, node, and one value per configured
// column — into the cabinet, MSB and fleet accumulators of its window.
//
//lint:detroot
func (r *RollupReducer) Add(t, node int64, vals []float64) error {
	if len(vals) != len(r.cols) {
		return fmt.Errorf("source: rollup row has %d values, want %d", len(vals), len(r.cols))
	}
	if w := t - tsagg.FloorMod(t, RollupStepSec); w != r.window {
		r.window = w
		for kind := range r.cur {
			clear(r.cur[kind])
		}
	}
	if r.floor != nil {
		if node < 0 || int(node) >= r.floor.Nodes() {
			return fmt.Errorf("source: rollup: node %d outside the %d-node floor",
				node, r.floor.Nodes())
		}
		id := topology.NodeID(node)
		r.fold(RollupKindCabinet, int64(r.floor.Cabinet(id)), vals)
		r.fold(RollupKindMSB, int64(r.floor.MSBOf(id)), vals)
	}
	r.fold(RollupKindFleet, 0, vals)
	return nil
}

// fold adds one row's values into the (kind, group) slot of the current
// window.
//
//lint:detroot
func (r *RollupReducer) fold(kind, group int64, vals []float64) {
	ms := r.cur[kind][group]
	if ms == nil {
		k := rollupKey{kind: kind, group: group, window: r.window}
		if ms = r.acc[k]; ms == nil {
			ms = make([]stats.Moments, len(r.cols))
			r.acc[k] = ms
		}
		r.cur[kind][group] = ms
	}
	for i, v := range vals {
		ms[i].Add(v)
	}
}

// Table renders the accumulated pre-aggregates as one partition table, rows
// sorted by (window, kind, group) so the emission order never depends on map
// iteration.
//
//lint:detroot
func (r *RollupReducer) Table() *store.Table {
	keys := make([]rollupKey, 0, len(r.acc))
	for k := range r.acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.window != b.window {
			return a.window < b.window
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.group < b.group
	})
	n := len(keys)
	ints := func(name string) store.Column { return store.Column{Name: name, Ints: make([]int64, n)} }
	floats := func(name string) store.Column { return store.Column{Name: name, Floats: make([]float64, n)} }
	cols := []store.Column{ints(RollupColWindow), ints(RollupColKind), ints(RollupColGroup), ints(RollupColStep)}
	for _, name := range r.cols {
		cn, cmn, cmx, cmean, cm2 := RollupStatCols(name)
		cols = append(cols, ints(cn), floats(cmn), floats(cmx), floats(cmean), floats(cm2))
	}
	for i, k := range keys {
		cols[0].Ints[i], cols[1].Ints[i], cols[2].Ints[i], cols[3].Ints[i] = k.window, k.kind, k.group, RollupStepSec
		for c, m := range r.acc[k] {
			st := cols[4+5*c:]
			st[0].Ints[i], st[1].Floats[i], st[2].Floats[i], st[3].Floats[i], st[4].Floats[i] = m.State()
		}
	}
	return &store.Table{Cols: cols}
}
