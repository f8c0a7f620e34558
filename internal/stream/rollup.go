package stream

import (
	"math"

	"repro/internal/topology"
)

// RollupWindow is one finalized window of the fleet/cabinet/MSB power
// rollup. Power values are NaN when the window carried no telemetry at
// all; with at least one observed node the sums cover exactly the
// observed nodes, matching the offline collector's convention.
type RollupWindow struct {
	T        int64
	Observed int       // nodes with telemetry this window
	FleetW   float64   // Σ node input power (sensor view)
	CabinetW []float64 // per-cabinet sums
	MSBW     []float64 // per-switchboard sums
}

// Rollup maintains the live power rollups: a bounded ring of recent
// windows plus the running sensor-energy integral. Summation is in node
// order, replicating the offline collector's accumulation order so fleet
// and MSB sums are bit-identical to the batch plane.
type Rollup struct {
	floor    *topology.Floor
	msbs     int
	cabinets int
	// The ring: window k of the stream (k counts from 0) lives in slot
	// k % ringDepth, its cabinet sums at cab[slot*cabinets:] and its MSB
	// sums at msb[slot*msbs:]. The backing doubles until it holds ringDepth
	// slots (a short run never pays for all of them); from then on nothing
	// moves and nothing is allocated.
	ring    []rollupSlot
	cab     []float64
	msb     []float64
	energyJ float64 // Σ fleet power × step over observed windows
	windows int64   // windows applied; the ring holds the last min(windows, ringDepth)
}

// rollupSlot is a ring entry without its per-group sums.
type rollupSlot struct {
	t        int64
	observed int
	fleetW   float64
}

// newRollup groups by a Summit-shaped floor of cfg.Nodes nodes (cfg has
// been validated: Nodes > 0).
func newRollup(cfg Config) *Rollup {
	floor := topology.MustNew(topology.ScaledConfig(cfg.Nodes))
	return &Rollup{
		floor:    floor,
		msbs:     floor.MSBs(),
		cabinets: floor.Cabinets(),
	}
}

// grow doubles the ring's backing, up to ringDepth slots. Only called while
// the ring has not wrapped, so slot k still holds window k and a plain copy
// keeps every window in place.
func (r *Rollup) grow() {
	n := min(ringDepth, max(16, 2*len(r.ring)))
	r.ring = append(make([]rollupSlot, 0, n), r.ring...)[:n]
	r.cab = append(make([]float64, 0, n*r.cabinets), r.cab...)[:n*r.cabinets]
	r.msb = append(make([]float64, 0, n*r.msbs), r.msb...)[:n*r.msbs]
}

// Name implements Operator.
func (r *Rollup) Name() string { return "rollup" }

// Apply implements Operator.
//
//lint:detroot
func (r *Rollup) Apply(f *Frame) {
	slot := int(r.windows % ringDepth)
	if slot == len(r.ring) {
		r.grow()
	}
	w := &r.ring[slot]
	*w = rollupSlot{t: f.Start, observed: f.Observed}
	cab := r.cab[slot*r.cabinets : (slot+1)*r.cabinets]
	msb := r.msb[slot*r.msbs : (slot+1)*r.msbs]
	if f.Observed == 0 {
		w.fleetW = math.NaN()
		for c := range cab {
			cab[c] = math.NaN()
		}
		for m := range msb {
			msb[m] = math.NaN()
		}
	} else {
		clear(cab)
		clear(msb)
		// Node-index order: the same order the simulator and the offline
		// collector sum in, so the floating-point result matches bit for
		// bit.
		for i := range f.NodePower {
			if f.NodePower[i].Count == 0 {
				continue
			}
			p := f.NodePower[i].Mean
			w.fleetW += p
			cab[r.floor.Cabinet(topology.NodeID(i))] += p
			msb[r.floor.MSBOf(topology.NodeID(i))] += p
		}
		r.energyJ += w.fleetW * float64(stepSec)
	}
	r.windows++
}

// Flush implements Operator.
func (r *Rollup) Flush() {}

// RollupSnapshot is a consistent copy of the rollup state.
type RollupSnapshot struct {
	Step     int64
	Windows  int64   // total windows observed (ring may hold fewer)
	EnergyJ  float64 // running fleet sensor-energy integral
	Cabinets int
	MSBs     int
	Recent   []RollupWindow // ascending time, deep-copied
}

// snapshotLocked copies up to limit most-recent windows (limit <= 0: all
// retained) in ascending time. Caller holds the pipeline snapshot lock.
func (r *Rollup) snapshotLocked(limit int) RollupSnapshot {
	n := int(min(r.windows, ringDepth))
	if limit > 0 && n > limit {
		n = limit
	}
	out := RollupSnapshot{
		Step:     stepSec,
		Windows:  r.windows,
		EnergyJ:  r.energyJ,
		Cabinets: r.cabinets,
		MSBs:     r.msbs,
		Recent:   make([]RollupWindow, n),
	}
	// One backing array for every copied group sum; each window's slices
	// are capped so an append by the caller cannot reach its neighbour.
	sums := make([]float64, n*(r.cabinets+r.msbs))
	for i := range out.Recent {
		slot := int((r.windows - int64(n-i)) % ringDepth)
		w := r.ring[slot]
		cab, rest := sums[:r.cabinets:r.cabinets], sums[r.cabinets:]
		msb := rest[:r.msbs:r.msbs]
		sums = rest[r.msbs:]
		copy(cab, r.cab[slot*r.cabinets:])
		copy(msb, r.msb[slot*r.msbs:])
		out.Recent[i] = RollupWindow{T: w.t, Observed: w.observed, FleetW: w.fleetW, CabinetW: cab, MSBW: msb}
	}
	return out
}
