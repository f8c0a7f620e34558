package core

import (
	"fmt"
	"math"

	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/units"
)

// VarFrame is one captured window of the exemplar job: per-GPU power and
// core temperature for every node in the allocation (indexed by the node's
// rank within the allocation).
type VarFrame struct {
	T     int64
	Power [][units.GPUsPerNode]float64
	Temp  [][units.GPUsPerNode]float64
}

// VariabilityCollector captures per-GPU detail for one allocation — the
// raw material of Figure 17. Attach it to Sim.Run alongside the main
// Collector.
type VariabilityCollector struct {
	alloc    *scheduler.Allocation
	floor    *topology.Floor
	nodeRank map[int]int // dense NodeID -> rank within allocation
	Frames   []VarFrame
}

// PickExemplarAllocation returns the index of the best "compute-intense
// large job" among allocations overlapping [winStart, winEnd) — the paper
// selects a near-full-utilization BerkeleyGW run; the score here prefers
// large, GPU-hot, long-overlapping allocations. Pass winEnd <= winStart to
// consider every allocation. Returns -1 when nothing qualifies.
func PickExemplarAllocation(allocs []scheduler.Allocation, winStart, winEnd int64) int {
	unbounded := winEnd <= winStart
	overlap := func(a *scheduler.Allocation) int64 {
		s, e := a.StartTime, a.EndTime
		if !unbounded {
			if s < winStart {
				s = winStart
			}
			if e > winEnd {
				e = winEnd
			}
		}
		return e - s
	}
	best := -1
	var bestScore float64
	for i := range allocs {
		a := &allocs[i]
		ov := overlap(a)
		if ov <= 0 {
			continue
		}
		// Node count dominates; GPU utilization separates the compute-
		// intense candidates from idle-ish allocations of the same size;
		// overlap breaks remaining ties.
		score := float64(a.Job.Nodes) * (0.05 + a.Job.Profile.GPUUtil) *
			(1 + float64(ov)/1e7)
		if best < 0 || score > bestScore {
			best = i
			bestScore = score
		}
	}
	return best
}

// AttachVariability is the CollectRun attachment that captures the run's
// exemplar (largest) job GPU by GPU, for Figure 17, into *vc.
func AttachVariability(vc **VariabilityCollector) Attach {
	return func(s *sim.Sim) (sim.Observer, error) {
		c, err := NewVariabilityCollector(s, -1)
		if err != nil {
			return nil, err
		}
		*vc = c
		return c, nil
	}
}

// NewVariabilityCollector captures allocation allocIdx of the sim. Pass a
// negative index to auto-select the exemplar.
func NewVariabilityCollector(s *sim.Sim, allocIdx int) (*VariabilityCollector, error) {
	allocs := s.Allocations()
	if allocIdx < 0 {
		cfg := s.Config()
		allocIdx = PickExemplarAllocation(allocs, cfg.StartTime, cfg.StartTime+cfg.DurationSec)
	}
	if allocIdx < 0 || allocIdx >= len(allocs) {
		return nil, fmt.Errorf("core: no allocation to capture")
	}
	a := &allocs[allocIdx]
	vc := &VariabilityCollector{
		alloc:    a,
		floor:    s.Floor(),
		nodeRank: make(map[int]int, len(a.NodeIDs)),
	}
	for rank, id := range a.NodeIDs {
		vc.nodeRank[int(id)] = rank
	}
	return vc, nil
}

// Observe implements sim.Observer.
func (vc *VariabilityCollector) Observe(snap *sim.Snapshot) {
	if snap.T < vc.alloc.StartTime || snap.T >= vc.alloc.EndTime {
		return
	}
	frame := VarFrame{
		T:     snap.T,
		Power: make([][units.GPUsPerNode]float64, len(vc.alloc.NodeIDs)),
		Temp:  make([][units.GPUsPerNode]float64, len(vc.alloc.NodeIDs)),
	}
	for nodeID, rank := range vc.nodeRank {
		frame.Power[rank] = snap.GPUPowerEach[nodeID]
		frame.Temp[rank] = snap.GPUCoreTemp[nodeID]
	}
	vc.Frames = append(vc.Frames, frame)
}

// InstantView is Figure 17 at one time instant: distributions of per-GPU
// power and temperature, their relation, and per-cabinet heat.
type InstantView struct {
	T        int64
	PowerBox stats.BoxPlot
	TempBox  stats.BoxPlot
	// Corr is the Pearson correlation between GPU power and temperature
	// (the paper observes a near-linear monotone relation).
	Corr float64
	// MeanByCabinet / MaxByCabinet are the floor heatmap cells: GPU core
	// temperature by cabinet index. Cabinets without job nodes are absent.
	MeanByCabinet map[int]float64
	MaxByCabinet  map[int]float64
}

// VariabilityReport is the Figure 17 content.
type VariabilityReport struct {
	JobID    int64
	Nodes    int
	GPUs     int
	Duration int64
	Cabinets int // on the run's floor: the heatmaps' extent
	Instants []InstantView
	// Spreads at the peak-power instant (paper: 62 W power vs 15.8 °C
	// temperature non-outlier spread).
	PowerSpreadW float64
	TempSpreadC  float64
}

// Figure17Variability reduces the captured frames at k evenly spaced
// instants. The allocation's node IDs are mapped to cabinets of the run's
// floor for the heatmaps.
func Figure17Variability(vc *VariabilityCollector, k int) (*VariabilityReport, error) {
	if len(vc.Frames) == 0 {
		return nil, fmt.Errorf("core: variability collector captured no frames")
	}
	if k < 1 {
		k = 6
	}
	if k > len(vc.Frames) {
		k = len(vc.Frames)
	}
	rep := &VariabilityReport{
		JobID:    vc.alloc.Job.ID,
		Nodes:    len(vc.alloc.NodeIDs),
		GPUs:     len(vc.alloc.NodeIDs) * units.GPUsPerNode,
		Duration: vc.alloc.EndTime - vc.alloc.StartTime,
		Cabinets: vc.floor.Cabinets(),
	}
	// Rank -> cabinet mapping.
	cabinetOf := make([]int, len(vc.alloc.NodeIDs))
	for rank, id := range vc.alloc.NodeIDs {
		cabinetOf[rank] = vc.floor.Cabinet(id)
	}
	var peakPower float64
	var peakView *InstantView
	for i := 0; i < k; i++ {
		fi := i * (len(vc.Frames) - 1) / max(k-1, 1)
		f := &vc.Frames[fi]
		var power, temp []float64
		meanCab := map[int]*stats.Moments{}
		maxCab := map[int]float64{}
		for rank := range f.Power {
			cab := cabinetOf[rank]
			if _, ok := meanCab[cab]; !ok {
				meanCab[cab] = &stats.Moments{}
				maxCab[cab] = math.Inf(-1)
			}
			for g := 0; g < units.GPUsPerNode; g++ {
				p, tc := f.Power[rank][g], f.Temp[rank][g]
				power = append(power, p)
				temp = append(temp, tc)
				meanCab[cab].Add(tc)
				if tc > maxCab[cab] {
					maxCab[cab] = tc
				}
			}
		}
		corr, err := stats.Pearson(power, temp)
		if err != nil {
			corr = math.NaN()
		}
		view := InstantView{
			T:             f.T,
			PowerBox:      stats.NewBoxPlot(power),
			TempBox:       stats.NewBoxPlot(temp),
			Corr:          corr,
			MeanByCabinet: map[int]float64{},
			MaxByCabinet:  maxCab,
		}
		for cab, m := range meanCab {
			view.MeanByCabinet[cab] = m.Mean()
		}
		rep.Instants = append(rep.Instants, view)
		if view.PowerBox.Median > peakPower {
			peakPower = view.PowerBox.Median
			peakView = &rep.Instants[len(rep.Instants)-1]
		}
	}
	if peakView != nil {
		rep.PowerSpreadW = peakView.PowerBox.NonOutlierSpread()
		rep.TempSpreadC = peakView.TempBox.NonOutlierSpread()
	}
	return rep, nil
}
