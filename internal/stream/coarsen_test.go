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

	var c windowCoarsener
	var got []tsagg.WindowStat
	for _, s := range samples {
		c.Add(s.T-tsagg.FloorMod(s.T, 10), s.V)
	}
	c.CloseThrough(math.MaxInt64, 10, func(w tsagg.WindowStat) { got = append(got, w) })

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
// that arrives after a later window opened lands in its own window, as in
// the batch tsagg.Coarsen, and CloseThrough emits only the windows that
// end by its bound. What is too late to add is the table's decision
// (TestTableCountsSamplesBehindTheClosedEndLate).
func TestWindowCoarsenerOutOfOrder(t *testing.T) {
	var c windowCoarsener
	for _, ws := range []int64{0, 20, 10} { // samples 5, 25, 12: 12 arrives after 25
		c.Add(ws, float64(ws))
	}
	var got []tsagg.WindowStat
	c.CloseThrough(20, 10, func(w tsagg.WindowStat) { got = append(got, w) })
	if len(got) != 2 || got[0].T != 0 || got[1].T != 10 {
		t.Fatalf("expected windows 0 and 10 closed, got %+v", got)
	}
	if got[1].Count != 1 || got[1].Mean != 10 {
		t.Errorf("straggler not in its own window: %+v", got[1])
	}
	if len(c.open) != 1 || c.open[0].start != 20 {
		t.Fatalf("open after close through 20: %+v, want window 20 only", c.open)
	}
}

// TestWindowCoarsenerGapWindows verifies windows with no samples are
// simply absent (the pipeline materializes the grid, not the coarsener).
func TestWindowCoarsenerGapWindows(t *testing.T) {
	var c windowCoarsener
	c.Add(0, 1)
	c.Add(40, 2)
	var starts []int64
	c.CloseThrough(math.MaxInt64, 10, func(w tsagg.WindowStat) { starts = append(starts, w.T) })
	if len(starts) != 2 || starts[0] != 0 || starts[1] != 40 {
		t.Fatalf("got window starts %v, want [0 40]", starts)
	}
	if len(c.open) != 0 {
		t.Errorf("open windows after flush: %d", len(c.open))
	}
}
