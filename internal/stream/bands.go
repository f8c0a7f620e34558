package stream

import (
	"repro/internal/core"
	"repro/internal/units"
)

// Bands runs the §2 band-occupancy analysis, core.BandOccupancy, over each
// frame's per-band GPU counts and keeps the latest window's histogram.
type Bands struct {
	occ     core.BandOccupancy
	nodes   int
	cur     [core.NumTempBands]float64
	curT    int64
	windows int64
}

func newBands(cfg Config) *Bands {
	return &Bands{nodes: cfg.Nodes, curT: -1}
}

// Name implements Operator.
func (b *Bands) Name() string { return "bands" }

// Apply implements Operator. Gap frames contribute zero counts, exactly
// like the offline collector, which sets every band series slot on every
// window.
//
//lint:detroot
func (b *Bands) Apply(f *Frame) {
	for i, n := range f.BandGPUs {
		b.cur[i] = float64(n)
	}
	b.occ.Add(b.cur)
	b.curT = f.Start
	b.windows++
}

// Flush implements Operator.
func (b *Bands) Flush() {}

// BandsSnapshot is a consistent copy of the thermal-band state.
type BandsSnapshot struct {
	T         int64 // timestamp of the current histogram (-1 before data)
	TotalGPUs float64
	Windows   int64
	Current   [core.NumTempBands]float64 // latest window's counts
	Summary   []core.BandSummary         // run-long occupancy per band
}

// snapshotLocked copies the state. Caller holds the pipeline snapshot
// lock.
func (b *Bands) snapshotLocked() BandsSnapshot {
	return BandsSnapshot{
		T:         b.curT,
		TotalGPUs: float64(b.nodes * units.GPUsPerNode),
		Windows:   b.windows,
		Current:   b.cur,
		Summary:   b.occ.Summary(b.nodes),
	}
}
