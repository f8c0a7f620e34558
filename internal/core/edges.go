package core

import (
	"math"

	"repro/internal/stats"
	"repro/internal/tsagg"
	"repro/internal/units"
)

// Edge is one detected rising or falling power edge (paper §4.2).
type Edge struct {
	// StartIdx is the series index of the last pre-edge window; the edge
	// occurs between StartIdx and EndIdx.
	StartIdx int
	EndIdx   int
	T        int64 // timestamp of the edge (first post-threshold window)
	Rising   bool
	// AmplitudeW is the total power change across the merged edge.
	AmplitudeW float64
	// DurationSec is the paper's edge duration: time from the edge start
	// until power has returned 80 % of the way from its peak back to the
	// pre-edge level. -1 when the series ends first.
	DurationSec int64
}

// DetectEdges finds edges in a power series using the paper's definition:
// a change of at least 868 W × nodes over one coarsening interval.
// Consecutive same-direction threshold crossings merge into a single edge.
// NaN slots break any in-progress edge.
func DetectEdges(s *tsagg.Series, nodes int) []Edge {
	if nodes <= 0 {
		return nil
	}
	return DetectEdgesThreshold(s, float64(units.EdgeThresholdPerNode)*float64(nodes))
}

// DetectEdgesThreshold is DetectEdges with an explicit absolute threshold
// in watts, used by the cluster-level snapshot analyses whose amplitude
// classes are defined in (scale-equivalent) megawatts rather than per-node
// terms. It runs an EdgeDetector over the finished series.
func DetectEdgesThreshold(s *tsagg.Series, threshold float64) []Edge {
	if s == nil || s.Len() < 2 || threshold <= 0 {
		return nil
	}
	var found []*Edge
	d := NewEdgeDetector(threshold, func(e *Edge) { found = append(found, e) })
	for i, v := range s.Vals {
		d.Push(s.TimeAt(i), v)
	}
	d.Flush()
	var edges []Edge
	for _, e := range found {
		edges = append(edges, *e)
	}
	return edges
}

// EdgeDetector is the §4.2 edge analysis as an online operator: values of
// a regular series arrive one at a time (NaN for missing windows) and
// completed edges come out incrementally. A change of at least the
// threshold over one step opens an edge, consecutive same-direction
// crossings merge into it, and a NaN or any other step closes it — a
// breaking step of at least the threshold opening the next edge. The
// paper's duration — from the edge start until power has come back 80 % of
// the way from its running extreme (peak for rising, trough for falling)
// toward the pre-edge level — is resolved retroactively as later values
// arrive, including values inside later edges.
type EdgeDetector struct {
	threshold float64
	emit      func(*Edge)
	idx       int     // index of the next value
	prev      float64 // previous value; NaN before the first
	prevT     int64
	open      *durState   // the edge still merging; nil when none
	pending   []*durState // emitted edges whose duration is unresolved
}

// durState is one edge and the scan for its 80 %-return duration.
type durState struct {
	edge    *Edge
	base    float64 // pre-edge level
	extreme float64 // running peak (rising) or trough (falling)
	startT  int64   // timestamp of the edge start
}

// NewEdgeDetector returns a detector with the given absolute threshold in
// watts. Completed edges are handed to emit exactly once; their
// DurationSec may still be -1 at that point and is filled in on the same
// Edge when the series returns 80 % of the way to the pre-edge level.
func NewEdgeDetector(threshold float64, emit func(*Edge)) *EdgeDetector {
	if emit == nil {
		panic("core: nil edge emit callback")
	}
	return &EdgeDetector{threshold: threshold, emit: emit, prev: math.NaN()}
}

// Threshold returns the detector's absolute threshold in watts.
func (d *EdgeDetector) Threshold() float64 { return d.threshold }

// Push feeds the next series value. t must advance by one series step per
// call; v may be NaN for a missing window.
//
//lint:detroot
func (d *EdgeDetector) Push(t int64, v float64) {
	delta := v - d.prev // NaN across a missing value and before the first
	if o := d.open; o != nil && math.Abs(delta) >= d.threshold && (delta > 0) == o.edge.Rising {
		o.edge.AmplitudeW += delta
		o.edge.EndIdx, o.edge.T = d.idx, t
	} else {
		d.closeEdge()
		if math.Abs(delta) >= d.threshold {
			d.open = &durState{
				edge: &Edge{StartIdx: d.idx - 1, EndIdx: d.idx, T: t, Rising: delta > 0,
					AmplitudeW: delta, DurationSec: -1},
				base:   d.prev,
				startT: d.prevT,
			}
		}
	}
	d.feedDurations(t, v)
	d.idx++
	d.prev, d.prevT = v, t
}

// closeEdge emits the merging edge, if any, and starts its duration scan
// from its last value, d.prev.
func (d *EdgeDetector) closeEdge() {
	if o := d.open; o != nil {
		d.open = nil
		o.extreme = d.prev
		d.emit(o.edge)
		d.pending = append(d.pending, o)
	}
}

// feedDurations advances every unresolved duration scan with value v at
// time t.
func (d *EdgeDetector) feedDurations(t int64, v float64) {
	if len(d.pending) == 0 || math.IsNaN(v) {
		return
	}
	keep := d.pending[:0]
	for _, ds := range d.pending {
		e := ds.edge
		if e.Rising && v > ds.extreme {
			ds.extreme = v
		}
		if !e.Rising && v < ds.extreme {
			ds.extreme = v
		}
		// Return threshold recomputed against the running extreme.
		ret := ds.extreme - 0.8*(ds.extreme-ds.base)
		if (e.Rising && v <= ret) || (!e.Rising && v >= ret) {
			e.DurationSec = t - ds.startT
			continue
		}
		keep = append(keep, ds)
	}
	d.pending = keep
}

// Flush emits an edge still merging at series end, its run ending at the
// last value. Unreturned durations stay -1. Afterwards the detector is
// usable only for duration resolution; callers invoke it once when the
// series ends.
func (d *EdgeDetector) Flush() { d.closeEdge() }

// BinEdges groups edges of the requested direction into amplitude bins of
// the given width in watts; bin k holds |amplitude| in [k·w, (k+1)·w).
// Sub-bin-1 edges are dropped.
func BinEdges(edges []Edge, binW float64, rising bool) map[int][]Edge {
	out := map[int][]Edge{}
	if binW <= 0 {
		return out
	}
	for _, e := range edges {
		if e.Rising != rising {
			continue
		}
		bin := int(math.Abs(e.AmplitudeW) / binW)
		if bin < 1 {
			continue
		}
		out[bin] = append(out[bin], e)
	}
	return out
}

// ScaleEquivalentMW returns the watts that correspond to 1 MW at full
// Summit scale for a system of the given node count — the amplitude-bin
// width used by the scaled Figure 11/12 analyses.
func ScaleEquivalentMW(nodes int) float64 {
	return units.WattsPerMW * float64(nodes) / float64(units.SummitNodes)
}

// SnapshotStack is a set of series windows superimposed and aligned at
// their edges, with per-offset mean and 95 % confidence half-width — the
// construction behind the paper's Figures 11 and 12.
type SnapshotStack struct {
	OffsetSec []int64 // offset from the edge, negative = before
	Mean      []float64
	CIHalf    []float64
	Count     int // number of superimposed snapshots
}

// SuperimposeAround extracts [t-beforeSec, t+afterSec] windows of s around
// each time in times, aligns them, and reduces each offset across
// snapshots to mean ± 1.96·SE. Offsets with no data are NaN.
func SuperimposeAround(s *tsagg.Series, times []int64, beforeSec, afterSec int64) *SnapshotStack {
	if s == nil || len(times) == 0 || s.Step <= 0 {
		return nil
	}
	nBefore := int(beforeSec / s.Step)
	nAfter := int(afterSec / s.Step)
	width := nBefore + nAfter + 1
	stack := &SnapshotStack{
		OffsetSec: make([]int64, width),
		Mean:      make([]float64, width),
		CIHalf:    make([]float64, width),
		Count:     len(times),
	}
	cols := make([][]float64, width)
	for k := 0; k < width; k++ {
		stack.OffsetSec[k] = int64(k-nBefore) * s.Step
	}
	for _, t := range times {
		for k := 0; k < width; k++ {
			v := s.At(t + stack.OffsetSec[k])
			if !math.IsNaN(v) {
				cols[k] = append(cols[k], v)
			}
		}
	}
	for k := 0; k < width; k++ {
		if len(cols[k]) == 0 {
			stack.Mean[k] = math.NaN()
			stack.CIHalf[k] = math.NaN()
			continue
		}
		stack.Mean[k], stack.CIHalf[k] = stats.MeanCI(cols[k], 1.96)
	}
	return stack
}

// EdgeTimes extracts the alignment timestamps of a set of edges.
func EdgeTimes(edges []Edge) []int64 {
	out := make([]int64, len(edges))
	for i, e := range edges {
		out[i] = e.T
	}
	return out
}
