package stream

import (
	"math"
	"testing"

	"repro/internal/tsagg"
)

// powerFrame is frame k of a two-node stream: node 0 at k watts, node 1 at
// 2k, start k*10.
func powerFrame(f *Frame, k int) *Frame {
	f.Start, f.Step, f.Observed = int64(k)*10, 10, 2
	f.NodePower = append(f.NodePower[:0],
		tsagg.WindowStat{T: f.Start, Count: 1, Mean: float64(k)},
		tsagg.WindowStat{T: f.Start, Count: 1, Mean: float64(2 * k)})
	return f
}

// TestRollupRingWraps: once ringDepth frames have been applied the ring
// overwrites in place, and a snapshot is still the last windows in
// ascending time, deep-copied, for every limit.
func TestRollupRingWraps(t *testing.T) {
	const max, frames, gap = ringDepth, ringDepth + 42, ringDepth + 39
	r := newRollup(Config{Nodes: 2}.withDefaults())
	var f Frame
	for k := 0; k < frames; k++ {
		if k == gap { // a gap frame inside the retained range
			r.Apply(&Frame{Start: gap * 10, Step: 10, NodePower: make([]tsagg.WindowStat, 2)})
			continue
		}
		r.Apply(powerFrame(&f, k))
	}
	for _, limit := range []int{0, 3, 8, max + 100} {
		want := max
		if limit > 0 && limit < max {
			want = limit
		}
		snap := r.snapshotLocked(limit)
		if snap.Windows != frames || len(snap.Recent) != want {
			t.Fatalf("limit %d: %d of %d windows, want %d of %d", limit, len(snap.Recent), snap.Windows, want, frames)
		}
		for i, w := range snap.Recent {
			k := frames - want + i
			fleet := float64(3 * k)
			if k == gap {
				fleet = math.NaN()
			}
			if w.T != int64(k)*10 || math.Float64bits(w.FleetW) != math.Float64bits(fleet) ||
				len(w.CabinetW) != 1 || math.Float64bits(w.CabinetW[0]) != math.Float64bits(fleet) ||
				len(w.MSBW) != 5 || math.Float64bits(w.MSBW[0]) != math.Float64bits(fleet) {
				t.Fatalf("limit %d window %d: %+v, want frame %d (fleet %v)", limit, i, w, k, fleet)
			}
		}
		// Deep copies: scribbling over one snapshot must not reach the ring
		// or a neighbouring window.
		for i := range snap.Recent {
			snap.Recent[i].CabinetW[0] = -1
			snap.Recent[i].MSBW = append(snap.Recent[i].MSBW, -1)
		}
	}
	if again := r.snapshotLocked(1).Recent[0]; again.CabinetW[0] != 3*(frames-1) || again.MSBW[0] != 3*(frames-1) {
		t.Errorf("snapshot aliases the ring: %+v", again)
	}
	wantJ := 0.0
	for k := 0; k < frames; k++ {
		if k != gap {
			wantJ += float64(3*k) * 10
		}
	}
	if math.Float64bits(r.energyJ) != math.Float64bits(wantJ) {
		t.Errorf("energy %v J, want %v", r.energyJ, wantJ)
	}
}

// TestRollupApplyOnAFullRingDoesNotAllocate: the ring neither shifts nor
// allocates per frame.
func TestRollupApplyOnAFullRingDoesNotAllocate(t *testing.T) {
	r := newRollup(Config{Nodes: 2}.withDefaults())
	var f Frame
	k := 0
	for ; k < ringDepth+12; k++ {
		r.Apply(powerFrame(&f, k))
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Apply(powerFrame(&f, k)); k++ }); allocs != 0 {
		t.Errorf("Apply on a full ring allocates %.0f times, want 0", allocs)
	}
}

// TestEdgesRingWraps: the edge ring keeps the newest ringDepth edges in
// detection order and the lifetime total.
func TestEdgesRingWraps(t *testing.T) {
	const max, swings = ringDepth, ringDepth + 17
	e := newEdges(Config{Nodes: 1}.withDefaults())
	// A square wave over the one node's 868 W threshold: every step is an
	// edge, closed by the next one.
	for k := 0; k <= swings; k++ {
		e.det.Push(int64(k)*10, float64(k%2)*1000)
	}
	e.Flush()
	for _, limit := range []int{0, 3, 8, max + 100} {
		want := max
		if limit > 0 && limit < max {
			want = limit
		}
		edges, total := e.snapshotLocked(limit)
		if total != swings || len(edges) != want {
			t.Fatalf("limit %d: %d of %d edges, want %d of %d", limit, len(edges), total, want, swings)
		}
		for i, edge := range edges {
			k := swings - want + i + 1 // the edge that ends at value k
			if edge.T != int64(k)*10 || edge.Rising != (k%2 == 1) {
				t.Fatalf("limit %d edge %d: %+v, want the edge at t=%d", limit, i, edge, k*10)
			}
		}
	}
}
