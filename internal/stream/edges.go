package stream

import (
	"math"

	"repro/internal/core"
)

// EdgeDetector is the online counterpart of core.DetectEdgesThreshold plus
// its duration follow-up: values of a regular series arrive one at a time
// (NaN for missing windows) and completed edges come out incrementally,
// with DurationSec resolved retroactively as post-edge values arrive. Fed
// the same values in the same order, it produces exactly the edges the
// batch detector finds on the completed series — TestEdgeDetectorParity
// pins this with randomized series.
type EdgeDetector struct {
	threshold float64
	idx       int // index of the next value
	prev      float64
	prevT     int64
	// In-progress merged edge (same-direction threshold crossings).
	merging   bool
	cur       core.Edge
	startVal  float64 // value at cur.StartIdx (the pre-edge level)
	curStartT int64   // timestamp of cur.StartIdx
	// Completed edges whose duration is still unresolved. Entries point at
	// edges already emitted; resolution mutates them in place.
	pending []*durState
	emit    func(*core.Edge)
}

// durState tracks the paper's 80 %-return duration for one emitted edge.
type durState struct {
	edge    *core.Edge
	base    float64 // pre-edge level
	extreme float64 // running peak (rising) or trough (falling)
	startT  int64   // timestamp of the edge start
}

// NewEdgeDetector returns a detector with the given absolute threshold in
// watts. Completed edges are handed to emit exactly once; their
// DurationSec may still be -1 at that point and is filled in later when
// the series returns 80 % of the way to the pre-edge level.
func NewEdgeDetector(threshold float64, emit func(*core.Edge)) *EdgeDetector {
	if emit == nil {
		panic("stream: nil edge emit callback")
	}
	return &EdgeDetector{threshold: threshold, emit: emit, prev: math.NaN()}
}

// Push feeds the next series value. t must advance by one series step per
// call; v may be NaN for a missing window.
func (d *EdgeDetector) Push(t int64, v float64) {
	k := d.idx
	d.idx++
	switch {
	case d.merging:
		if math.IsNaN(v) {
			// NaN breaks the in-progress edge (batch: merge loop stops at
			// the first NaN and the outer loop skips past it).
			d.closeEdge()
		} else {
			dj := v - d.prev
			if math.Abs(dj) >= d.threshold && (dj > 0) == d.cur.Rising {
				d.cur.AmplitudeW += dj
				d.cur.EndIdx = k
				d.cur.T = t
			} else {
				d.closeEdge()
				// The batch outer loop resumes at the breaking index, so the
				// breaking delta itself can open a new (opposite-direction)
				// edge.
				if math.Abs(dj) >= d.threshold {
					d.openEdge(k, t, dj)
				}
			}
		}
	case k > 0 && !math.IsNaN(d.prev) && !math.IsNaN(v):
		if delta := v - d.prev; math.Abs(delta) >= d.threshold {
			d.openEdge(k, t, delta)
		}
	}
	// Duration resolution sees every value from each edge's EndIdx+1 on —
	// including values inside later edges, exactly like the batch scan.
	d.feedDurations(t, v)
	d.prev, d.prevT = v, t
}

// openEdge starts a merged edge whose first crossing is prev -> value k.
func (d *EdgeDetector) openEdge(k int, t int64, delta float64) {
	d.merging = true
	d.startVal = d.prev
	d.curStartT = d.prevT
	d.cur = core.Edge{
		StartIdx:    k - 1,
		EndIdx:      k,
		T:           t,
		Rising:      delta > 0,
		AmplitudeW:  delta,
		DurationSec: -1,
	}
}

// closeEdge finalizes the in-progress edge and starts tracking its return
// duration. At this point d.prev is the value at cur.EndIdx.
func (d *EdgeDetector) closeEdge() {
	d.merging = false
	e := d.cur
	d.emit(&e)
	d.pending = append(d.pending, &durState{
		edge:    &e,
		base:    d.startVal,
		extreme: d.prev,
		startT:  d.curStartT,
	})
}

// feedDurations advances every unresolved duration scan with value v at
// time t, mirroring core.edgeDuration's loop body.
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

// Flush completes an in-progress edge at series end (the batch detector
// emits it with the merge run ending at the last value). Unreturned
// durations stay -1. The detector remains usable afterwards only for
// duration resolution; callers invoke it once when the stream closes.
func (d *EdgeDetector) Flush() {
	if d.merging {
		d.closeEdge()
	}
}

// Edges runs streaming edge detection (paper §4) over the fleet power
// rollup: each finalized frame contributes one series value (NaN on gap
// frames, matching the offline series' missing slots) and detected edges
// accumulate in a bounded ring.
type Edges struct {
	det *EdgeDetector
	// ring holds the last min(total, len(ring)) edges: edge k of the
	// stream (k counts from 0) lives in slot k % len(ring).
	ring  []*core.Edge
	total int64
}

func newEdges(cfg Config) *Edges {
	e := &Edges{ring: make([]*core.Edge, cfg.MaxEdges)}
	e.det = NewEdgeDetector(cfg.edgeThreshold(), func(edge *core.Edge) {
		// Overwrites the oldest once full; a pending duration scan keeps
		// its pointer and harmlessly resolves the evicted edge.
		e.ring[e.total%int64(len(e.ring))] = edge
		e.total++
	})
	return e
}

// Name implements Operator.
func (e *Edges) Name() string { return "edges" }

// Apply implements Operator. The fleet value replicates the rollup's
// node-order summation so the detector sees exactly the offline cluster
// power series.
//
//lint:detroot
func (e *Edges) Apply(f *Frame) {
	v := math.NaN()
	if f.Observed > 0 {
		v = 0
		for i := range f.NodePower {
			if f.NodePower[i].Count == 0 {
				continue
			}
			v += f.NodePower[i].Mean
		}
	}
	e.det.Push(f.Start, v)
}

// Flush implements Operator.
func (e *Edges) Flush() { e.det.Flush() }

// Threshold returns the detector's absolute threshold in watts.
func (e *Edges) Threshold() float64 { return e.det.threshold }

// snapshotLocked copies up to limit most-recent edges (limit <= 0: all
// retained), ascending by detection time. Caller holds the pipeline
// snapshot lock.
func (e *Edges) snapshotLocked(limit int) (edges []core.Edge, total int64) {
	n := int(min(e.total, int64(len(e.ring))))
	if limit > 0 && n > limit {
		n = limit
	}
	edges = make([]core.Edge, n)
	for i := range edges {
		edges[i] = *e.ring[(e.total-int64(n-i))%int64(len(e.ring))]
	}
	return edges, e.total
}
