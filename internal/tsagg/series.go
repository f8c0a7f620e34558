// Package tsagg implements the time-series aggregation layer of the paper's
// methodology (§3): coarsening 1 Hz telemetry into 10-second windows that
// keep count/min/max/mean/std, collapsing per-node series to cluster level,
// and joining series with job allocations.
package tsagg

import (
	"cmp"
	"math"
	"slices"

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

// FloorMod is the non-negative remainder of a by b (b > 0): t - FloorMod(t,
// w) aligns a timestamp, negative ones included, to the start of its window.
func FloorMod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// Coarsen coarsens samples into window statistics: each sample joins the
// window its own timestamp names, a window folds its samples in input order,
// and the windows come back in ascending order. Input order matters only to
// the last bits of a window's floating-point moments. It panics if window
// <= 0 (a programming error).
func Coarsen(samples []Sample, window int64) []WindowStat {
	if window <= 0 {
		panic("tsagg: non-positive coarsening window")
	}
	var out []WindowStat
	var acc []stats.Moments // acc[i] folds out[i]'s samples
	at := map[int64]int{}
	cur := -1 // out index of the previous sample's window
	for _, s := range samples {
		ws := s.T - FloorMod(s.T, window)
		if cur < 0 || out[cur].T != ws {
			i, ok := at[ws]
			if !ok {
				i = len(out)
				at[ws] = i
				out, acc = append(out, WindowStat{T: ws}), append(acc, stats.Moments{})
			}
			cur = i
		}
		acc[cur].Add(s.V)
	}
	for i, m := range acc {
		out[i] = WindowStat{T: out[i].T, Count: m.N, Min: m.Min, Max: m.Max, Mean: m.Mean(), Std: m.Std()}
	}
	slices.SortFunc(out, func(a, b WindowStat) int { return cmp.Compare(a.T, b.T) })
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
