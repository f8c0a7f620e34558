package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/units"
)

// PickExemplarAllocation returns the index of the best "compute-intense
// large job" among allocations overlapping [winStart, winEnd) — the paper
// selects a near-full-utilization BerkeleyGW run; the score here prefers
// large, GPU-hot, long-overlapping allocations. Returns -1 when nothing
// qualifies.
func PickExemplarAllocation(allocs []scheduler.Allocation, winStart, winEnd int64) int {
	best := -1
	var bestScore float64
	for i := range allocs {
		a := &allocs[i]
		ov := min(a.EndTime, winEnd) - max(a.StartTime, winStart)
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

// variabilityInstants is how many windows of the exemplar job Figure 17
// reads, evenly spaced over the job's windows in the run.
const variabilityInstants = 6

// exemplarFrames returns the times of the run windows Figure 17 reads of
// allocation a: variabilityInstants (or every one, when a holds fewer) of the
// windows the run observes inside a, evenly spaced, its first and last
// included. They are chosen before the run, so only they are captured.
func exemplarFrames(a *scheduler.Allocation, cfg sim.Config) []int64 {
	step := cfg.StepSec
	// The run's windows start at StartTime + w·step, before its end.
	window := func(t int64) int64 { return (t - cfg.StartTime + step - 1) / step }
	first := window(max(a.StartTime, cfg.StartTime))
	n := int(window(min(a.EndTime, cfg.StartTime+cfg.DurationSec)) - first)
	if n <= 0 {
		return nil
	}
	k := min(variabilityInstants, n)
	out := make([]int64, k)
	for i := range out {
		out[i] = cfg.StartTime + (first+int64(i*(n-1)/max(k-1, 1)))*step
	}
	return out
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
	// Peak indexes the peak-power instant of Instants: the one with the
	// highest median GPU power, -1 when no instant draws power.
	Peak int
	// Spreads at the peak-power instant (paper: 62 W power vs 15.8 °C
	// temperature non-outlier spread).
	PowerSpreadW float64
	TempSpreadC  float64
}

// Figure17Variability reduces the exemplar frames src holds, instant by
// instant. The job's nodes are mapped to cabinets of the run's floor for the
// heatmaps; its duration comes from the allocation log.
func Figure17Variability(src source.RunSource) (*VariabilityReport, error) {
	samples, err := src.ExemplarGPUs()
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: %s holds no frames: the run had no job to pick: %w", source.DatasetExemplar, source.ErrUnavailable)
	}
	meta, err := src.Meta()
	if err != nil {
		return nil, err
	}
	allocs, err := src.Allocations()
	if err != nil {
		return nil, err
	}
	id := samples[0].AllocationID
	i := slices.IndexFunc(allocs, func(a source.Allocation) bool { return a.AllocationID == id })
	if i < 0 {
		return nil, fmt.Errorf("core: exemplar job %d is not in %s", id, source.DatasetAllocations)
	}
	floor, err := siteFloor(meta.Site, meta.Nodes)
	if err != nil {
		return nil, err
	}
	// Each frame is every GPU of the job, its nodes in allocation order.
	gpus := allocs[i].Nodes * units.GPUsPerNode
	if gpus == 0 || len(samples)%gpus != 0 {
		return nil, fmt.Errorf("core: %s: %d samples do not form frames of job %d's %d GPUs", source.DatasetExemplar, len(samples), id, gpus)
	}
	rep := &VariabilityReport{
		JobID:    id,
		Nodes:    allocs[i].Nodes,
		GPUs:     gpus,
		Duration: allocs[i].EndTime - allocs[i].BeginTime,
		Cabinets: floor.Cabinets(),
		Peak:     -1,
	}
	var peakPower float64
	for f := 0; f < len(samples); f += gpus {
		frame := samples[f : f+gpus]
		var power, temp []float64
		meanCab := map[int]*stats.Moments{}
		maxCab := map[int]float64{}
		for _, g := range frame {
			cab := floor.Cabinet(topology.NodeID(g.Node))
			if _, ok := meanCab[cab]; !ok {
				meanCab[cab] = &stats.Moments{}
				maxCab[cab] = math.Inf(-1)
			}
			power = append(power, g.PowerW)
			temp = append(temp, g.TempC)
			meanCab[cab].Add(g.TempC)
			if g.TempC > maxCab[cab] {
				maxCab[cab] = g.TempC
			}
		}
		corr, err := stats.Pearson(power, temp)
		if err != nil {
			corr = math.NaN()
		}
		view := InstantView{
			T:             frame[0].T,
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
			rep.Peak = len(rep.Instants) - 1
		}
	}
	if rep.Peak >= 0 {
		peak := rep.Instants[rep.Peak]
		rep.PowerSpreadW = peak.PowerBox.NonOutlierSpread()
		rep.TempSpreadC = peak.TempBox.NonOutlierSpread()
	}
	return rep, nil
}
