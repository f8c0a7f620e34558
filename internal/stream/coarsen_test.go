package stream

import (
	"math"
	"testing"

	"repro/internal/tsagg"
)

// TestWindowCoarsenerParity pins the contract the pipeline's exactness
// rests on: for in-order input the event-time coarsener produces exactly
// the windows of the batch tsagg.Coarsen — same assignment, same
// accumulation order, bit-identical statistics.
func TestWindowCoarsenerParity(t *testing.T) {
	var samples []tsagg.Sample
	for i := 0; i < 137; i++ {
		samples = append(samples, tsagg.Sample{
			T: int64(i), V: 100 + 13*float64(i%7) + 0.1*float64(i),
		})
	}
	want := tsagg.Coarsen(samples, 10)

	c := newWindowCoarsener(10)
	var got []tsagg.WindowStat
	for _, s := range samples {
		if !c.Add(s.T, s.V) {
			t.Fatalf("in-order sample at t=%d rejected", s.T)
		}
	}
	c.CloseThrough(math.MaxInt64, func(w tsagg.WindowStat) { got = append(got, w) })

	if len(got) != len(want) {
		t.Fatalf("got %d windows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestWindowCoarsenerOutOfOrder pins the event-time rule on stragglers: one
// within the open horizon lands in its own window, as in the batch
// tsagg.Coarsen, and one behind the finalization floor is rejected (the
// batch path, which has no floor, keeps it).
func TestWindowCoarsenerOutOfOrder(t *testing.T) {
	c := newWindowCoarsener(10)
	for _, ts := range []int64{5, 25, 12} { // 12 arrives after 25
		if !c.Add(ts, float64(ts)) {
			t.Fatalf("sample at t=%d rejected while window open", ts)
		}
	}
	var got []tsagg.WindowStat
	c.CloseThrough(20, func(w tsagg.WindowStat) { got = append(got, w) })
	if len(got) != 2 || got[0].T != 0 || got[1].T != 10 {
		t.Fatalf("expected windows 0 and 10 closed, got %+v", got)
	}
	if got[1].Count != 1 || got[1].Mean != 12 {
		t.Errorf("straggler not in its own window: %+v", got[1])
	}
	// Behind the floor now.
	if c.Add(3, 3) {
		t.Error("sample behind the finalization floor accepted")
	}
	if c.Add(14, 14) {
		t.Error("sample in a closed window accepted")
	}
	if !c.Add(21, 21) {
		t.Error("sample in the open window rejected")
	}
	got = got[:0]
	c.CloseThrough(math.MaxInt64, func(w tsagg.WindowStat) { got = append(got, w) })
	if len(got) != 1 || got[0].T != 20 || got[0].Count != 2 {
		t.Fatalf("flush: got %+v", got)
	}
}

// TestWindowCoarsenerGapWindows verifies windows with no samples are
// simply absent (the pipeline materializes the grid, not the coarsener).
func TestWindowCoarsenerGapWindows(t *testing.T) {
	c := newWindowCoarsener(10)
	c.Add(0, 1)
	c.Add(40, 2)
	var starts []int64
	c.CloseThrough(math.MaxInt64, func(w tsagg.WindowStat) { starts = append(starts, w.T) })
	if len(starts) != 2 || starts[0] != 0 || starts[1] != 40 {
		t.Fatalf("got window starts %v, want [0 40]", starts)
	}
	if len(c.open) != 0 {
		t.Errorf("open windows after flush: %d", len(c.open))
	}
}
