// Package tsagg implements the time-series aggregation layer of the paper's
// methodology (§3): coarsening 1 Hz telemetry into 10-second windows that
// keep count/min/max/mean/std, collapsing per-node series to cluster level,
// and joining series with job allocations.
package tsagg

import (
	"math"

	"repro/internal/stats"
)

// Sample is one raw telemetry observation.
type Sample struct {
	T int64   // unix seconds
	V float64 // metric value
}

// WindowStat is the statistical summary of one coarsening window — the tuple
// the paper stores per series per 10-second window to avoid information loss.
type WindowStat struct {
	T     int64 // window start (unix seconds, aligned to the window size)
	Count int64
	Min   float64
	Max   float64
	Mean  float64
	Std   float64
}

// Coarsener streams raw samples into aligned windows. Feed samples in
// non-decreasing time order; completed windows are delivered to the emit
// callback. The zero value is not usable; call NewCoarsener.
type Coarsener struct {
	window int64
	emit   func(WindowStat)
	cur    int64 // current window start; math.MinInt64 when empty
	m      stats.Moments
}

// NewCoarsener returns a Coarsener with the given window size in seconds.
// It panics if window <= 0 or emit is nil (programming errors).
func NewCoarsener(window int64, emit func(WindowStat)) *Coarsener {
	if window <= 0 {
		panic("tsagg: non-positive coarsening window")
	}
	if emit == nil {
		panic("tsagg: nil emit callback")
	}
	return &Coarsener{window: window, emit: emit, cur: math.MinInt64}
}

// Add feeds one sample. Samples whose timestamp precedes the current window
// are counted into the current window rather than dropped: the telemetry
// path timestamps payloads up to 5 s late (paper §3), so small reordering is
// expected and window assignment tolerates it.
func (c *Coarsener) Add(t int64, v float64) {
	ws := t - FloorMod(t, c.window)
	if c.cur == math.MinInt64 {
		c.cur = ws
	}
	if ws > c.cur {
		c.flush()
		c.cur = ws
	}
	c.m.Add(v)
}

// FloorMod is the non-negative remainder of a by b (b > 0): t - FloorMod(t,
// w) aligns a timestamp, negative ones included, to the start of its window.
func FloorMod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

func (c *Coarsener) flush() {
	if c.m.N == 0 {
		return
	}
	c.emit(WindowStat{
		T:     c.cur,
		Count: c.m.N,
		Min:   c.m.Min,
		Max:   c.m.Max,
		Mean:  c.m.Mean(),
		Std:   c.m.Std(),
	})
	c.m.Reset()
}

// Flush emits any pending partial window. Call once after the last Add.
func (c *Coarsener) Flush() { c.flush() }

// Coarsen is the batch form: it coarsens samples (already time-ordered) into
// window statistics.
func Coarsen(samples []Sample, window int64) []WindowStat {
	var out []WindowStat
	c := NewCoarsener(window, func(w WindowStat) { out = append(out, w) })
	for _, s := range samples {
		c.Add(s.T, s.V)
	}
	c.Flush()
	return out
}

// Series is a regular time series: a start time, a fixed step, and values.
// NaN marks missing observations.
type Series struct {
	Start int64 // unix seconds of Vals[0]
	Step  int64 // seconds between values
	Vals  []float64
}

// NewSeries allocates a series of n NaNs.
func NewSeries(start, step int64, n int) *Series {
	if step <= 0 {
		panic("tsagg: non-positive series step")
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return &Series{Start: start, Step: step, Vals: v}
}

// Len returns the number of slots.
func (s *Series) Len() int { return len(s.Vals) }

// End returns the exclusive end time.
func (s *Series) End() int64 { return s.Start + int64(len(s.Vals))*s.Step }

// TimeAt returns the timestamp of index i.
func (s *Series) TimeAt(i int) int64 { return s.Start + int64(i)*s.Step }

// Index returns the slot index of time t and whether it is in range.
func (s *Series) Index(t int64) (int, bool) {
	if t < s.Start || s.Step <= 0 {
		return 0, false
	}
	i := int((t - s.Start) / s.Step)
	return i, i < len(s.Vals)
}

// Set stores v at time t if in range, returning whether it was stored.
func (s *Series) Set(t int64, v float64) bool {
	i, ok := s.Index(t)
	if ok {
		s.Vals[i] = v
	}
	return ok
}

// At returns the value at time t, or NaN if out of range.
func (s *Series) At(t int64) float64 {
	i, ok := s.Index(t)
	if !ok {
		return math.NaN()
	}
	return s.Vals[i]
}

// Slice returns the sub-series covering [t0, t1). Times are clamped to the
// series range; an empty intersection yields a zero-length series. The
// returned series shares backing storage.
func (s *Series) Slice(t0, t1 int64) *Series {
	if t0 < s.Start {
		t0 = s.Start
	}
	if t1 > s.End() {
		t1 = s.End()
	}
	if t1 <= t0 {
		return &Series{Start: t0, Step: s.Step}
	}
	i0 := int((t0 - s.Start) / s.Step)
	i1 := int((t1 - s.Start + s.Step - 1) / s.Step)
	return &Series{Start: s.TimeAt(i0), Step: s.Step, Vals: s.Vals[i0:i1]}
}

// Clean returns the non-NaN values of the series.
func (s *Series) Clean() []float64 {
	out := make([]float64, 0, len(s.Vals))
	for _, v := range s.Vals {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// Integrate returns the approximate integral ∑ v·step of the non-NaN
// values — power (W) integrated over time yields energy (J).
func (s *Series) Integrate() float64 {
	sum := 0.0
	for _, v := range s.Vals {
		if !math.IsNaN(v) {
			sum += v * float64(s.Step)
		}
	}
	return sum
}

// Stats summarizes the non-NaN values.
func (s *Series) Stats() stats.Moments { return stats.Summarize(s.Clean()) }
