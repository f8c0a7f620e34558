package core

import (
	"sort"

	"repro/internal/source"
)

// ThermalResponseSet is one panel column of Figure 12: the system's
// component temperatures and cooling-plant state superimposed around a set
// of cluster power edges of similar amplitude and direction.
type ThermalResponseSet struct {
	AmplitudeMW int
	Rising      bool
	Count       int

	Power       *SnapshotStack // cluster power (W)
	PUE         *SnapshotStack
	GPUTempMean *SnapshotStack // °C
	GPUTempMax  *SnapshotStack
	CPUTempMean *SnapshotStack
	CPUTempMax  *SnapshotStack
	SupplyC     *SnapshotStack // MTW supply temperature
	ReturnC     *SnapshotStack // MTW return temperature
	TowerTons   *SnapshotStack
	ChillerTons *SnapshotStack
	// TowerCount / ChillerCount are the staged equipment counts around
	// the edge: the discrete staging behaviour of the plant.
	TowerCount   *SnapshotStack
	ChillerCount *SnapshotStack
}

// Figure12ThermalResponse builds the thermal-response snapshot columns for
// every rising-edge amplitude bin plus one falling-edge column at the
// largest falling amplitude present (mirroring the paper's 4 MW/6 MW/7 MW
// rises + 7 MW fall layout at full scale).
func Figure12ThermalResponse(src source.RunSource, beforeSec, afterSec int64) ([]ThermalResponseSet, error) {
	meta, err := src.Meta()
	if err != nil {
		return nil, err
	}
	series, err := seriesOf(src,
		source.SeriesClusterPower, source.SeriesPUE,
		source.SeriesGPUTempMean, source.SeriesGPUTempMax,
		source.SeriesCPUTempMean, source.SeriesCPUTempMax,
		source.SeriesSupplyC, source.SeriesReturnC,
		source.SeriesTowerTons, source.SeriesChillerTons,
		source.SeriesTowerCount, source.SeriesChillerCount)
	if err != nil {
		return nil, err
	}
	binW := ScaleEquivalentMW(meta.Nodes)
	edges := DetectEdgesThreshold(series[0], binW)
	build := func(mw int, rising bool, times []int64) ThermalResponseSet {
		stack := make([]*SnapshotStack, len(series))
		for i, s := range series {
			stack[i] = SuperimposeAround(s, times, beforeSec, afterSec)
		}
		return ThermalResponseSet{
			AmplitudeMW:  mw,
			Rising:       rising,
			Count:        len(times),
			Power:        stack[0],
			PUE:          stack[1],
			GPUTempMean:  stack[2],
			GPUTempMax:   stack[3],
			CPUTempMean:  stack[4],
			CPUTempMax:   stack[5],
			SupplyC:      stack[6],
			ReturnC:      stack[7],
			TowerTons:    stack[8],
			ChillerTons:  stack[9],
			TowerCount:   stack[10],
			ChillerCount: stack[11],
		}
	}
	var out []ThermalResponseSet
	rising := BinEdges(edges, binW, true)
	var mws []int
	for mw := range rising {
		mws = append(mws, mw)
	}
	sort.Ints(mws)
	for _, mw := range mws {
		out = append(out, build(mw, true, EdgeTimes(rising[mw])))
	}
	// Largest falling-amplitude bin.
	falling := BinEdges(edges, binW, false)
	best := -1
	for mw := range falling {
		if mw > best {
			best = mw
		}
	}
	if best > 0 {
		out = append(out, build(best, false, EdgeTimes(falling[best])))
	}
	return out, nil
}

// CoolingLagSec estimates the cooling plant's response delay to a rising
// edge: the offset at which the superimposed tower+chiller tonnage has
// covered half of its post-edge increase. Returns -1 when no rise is
// visible in the stack.
func CoolingLagSec(set ThermalResponseSet) int64 {
	if set.TowerTons == nil {
		return -1
	}
	// Combined tons stack offsets mirror the power stack.
	n := len(set.TowerTons.OffsetSec)
	combined := make([]float64, n)
	for i := 0; i < n; i++ {
		combined[i] = set.TowerTons.Mean[i]
		if set.ChillerTons != nil && i < len(set.ChillerTons.Mean) {
			combined[i] += set.ChillerTons.Mean[i]
		}
	}
	// Baseline: value at the edge (offset 0); final: last offset.
	zero := -1
	for i, off := range set.TowerTons.OffsetSec {
		if off == 0 {
			zero = i
			break
		}
	}
	if zero < 0 || zero >= n-1 {
		return -1
	}
	base, final := combined[zero], combined[n-1]
	if final <= base {
		return -1
	}
	half := base + 0.5*(final-base)
	for i := zero; i < n; i++ {
		if combined[i] >= half {
			return set.TowerTons.OffsetSec[i]
		}
	}
	return -1
}
