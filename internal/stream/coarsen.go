package stream

import (
	"math"

	"repro/internal/stats"
	"repro/internal/tsagg"
)

// openWindow is one not-yet-finalized coarsening window.
type openWindow struct {
	start int64
	m     stats.Moments
}

// windowCoarsener is the event-time streaming form of tsagg.Coarsen: it
// assigns each sample to the window its own timestamp names, as the batch
// form does, and keeps every window open until a watermark says no more
// samples for it can arrive. The two agree exactly (see
// TestWindowCoarsenerParity) except on samples later than the configured
// lateness bound, which the batch path keeps and this path drops.
type windowCoarsener struct {
	step int64
	// closedEnd is the high-water mark of finalization: every window whose
	// end (start+step) is <= closedEnd has been emitted and will not
	// reopen. Samples destined for such a window are rejected by Add.
	closedEnd int64
	// open holds the in-flight windows in ascending start order. Bounded
	// lateness keeps this short: at most lateness/step+2 entries.
	open []openWindow
}

// newWindowCoarsener returns a coarsener with the given window size in
// seconds. It panics if step <= 0 (a programming error). The pipeline's
// table builds its coarseners in place (table.fold); this one stands
// alone, for the tests' map oracle.
func newWindowCoarsener(step int64) *windowCoarsener {
	if step <= 0 {
		panic("stream: non-positive coarsening window")
	}
	return &windowCoarsener{step: step, closedEnd: math.MinInt64}
}

// Add feeds one sample, returning false when the sample's window has
// already been finalized (the sample is too late and must be dropped).
func (c *windowCoarsener) Add(t int64, v float64) bool {
	ws := t - tsagg.FloorMod(t, c.step)
	if c.closedEnd != math.MinInt64 && ws+c.step <= c.closedEnd {
		return false
	}
	// Find or insert the window, keeping `open` sorted by start.
	i := len(c.open)
	for i > 0 && c.open[i-1].start > ws {
		i--
	}
	if i > 0 && c.open[i-1].start == ws {
		c.open[i-1].m.Add(v)
		return true
	}
	c.open = append(c.open, openWindow{}) //lint:allow allocfree grows only until the list holds lateness/step+2 windows, then reuses its array
	copy(c.open[i+1:], c.open[i:])
	c.open[i] = openWindow{start: ws}
	c.open[i].m.Add(v)
	return true
}

// CloseThrough finalizes every open window whose end lies at or before
// end, reporting each to emit in ascending start order, and raises the
// rejection floor so those windows cannot reopen. Pass math.MaxInt64 to
// flush everything.
func (c *windowCoarsener) CloseThrough(end int64, emit func(tsagg.WindowStat)) {
	if c.closedEnd != math.MinInt64 && end <= c.closedEnd {
		return
	}
	c.closedEnd = end
	n := 0
	for _, w := range c.open {
		if w.start+c.step > end && end != math.MaxInt64 {
			break
		}
		emit(tsagg.WindowStat{
			T:     w.start,
			Count: w.m.N,
			Min:   w.m.Min,
			Max:   w.m.Max,
			Mean:  w.m.Mean(),
			Std:   w.m.Std(),
		})
		n++
	}
	c.open = append(c.open[:0], c.open[n:]...)
}
