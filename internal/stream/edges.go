package stream

import (
	"repro/internal/core"
	"repro/internal/units"
)

// Edges runs the §4 edge analysis, core.EdgeDetector, over the fleet power
// rollup: each finalized frame pushes the fleet sum Rollup.Apply stored
// (NaN on gap frames, matching the offline series' missing slots), and
// detected edges accumulate in a bounded ring.
type Edges struct {
	det *core.EdgeDetector
	// ring holds the last min(total, len(ring)) edges: edge k of the
	// stream (k counts from 0) lives in slot k % len(ring).
	ring  []*core.Edge
	total int64
}

func newEdges(cfg Config) *Edges {
	e := &Edges{ring: make([]*core.Edge, ringDepth)}
	// The paper's edge threshold: 868 W per node of the system.
	e.det = core.NewEdgeDetector(float64(units.EdgeThresholdPerNode)*float64(cfg.Nodes), func(edge *core.Edge) {
		// Overwrites the oldest once full; a pending duration scan keeps
		// its pointer and harmlessly resolves the evicted edge.
		e.ring[e.total%int64(len(e.ring))] = edge
		e.total++
	})
	return e
}

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
