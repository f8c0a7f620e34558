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

// windowCoarsener is the event-time streaming form of tsagg.Coarsen for
// one channel: it accumulates each sample into the window its own
// timestamp names, as the batch form does, and keeps every window open
// until CloseThrough finalizes it. The two agree exactly (see
// TestWindowCoarsenerParity). The coarsener has no floor of its own: the
// channel table decides, for every channel at once, which samples are
// too late to add (table.fold). The zero value is an empty coarsener.
type windowCoarsener struct {
	// open holds the in-flight windows in ascending start order. Bounded
	// lateness keeps this short: at most lateness/step+2 entries.
	open []openWindow
}

// Add feeds one sample to the window starting at ws.
func (c *windowCoarsener) Add(ws int64, v float64) {
	// Find or insert the window, keeping `open` sorted by start.
	i := len(c.open)
	for i > 0 && c.open[i-1].start > ws {
		i--
	}
	if i > 0 && c.open[i-1].start == ws {
		c.open[i-1].m.Add(v)
		return
	}
	c.open = append(c.open, openWindow{}) //lint:allow allocfree grows only until the list holds lateness/step+2 windows, then reuses its array
	copy(c.open[i+1:], c.open[i:])
	c.open[i] = openWindow{start: ws}
	c.open[i].m.Add(v)
}

// CloseThrough finalizes every open window of length step whose end lies
// at or before end, reporting each to emit in ascending start order. Pass
// math.MaxInt64 to flush everything.
func (c *windowCoarsener) CloseThrough(end, step int64, emit func(tsagg.WindowStat)) {
	n := 0
	for _, w := range c.open {
		if w.start+step > end && end != math.MaxInt64 {
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
