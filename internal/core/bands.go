package core

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/tsagg"
	"repro/internal/units"
)

// Temperature bands of the facility's component-wise summary (paper §2):
// the MTW operators cross-check supply/return/flow against a histogram of
// all 27,756 GPU temperatures, watching the hot bands stay empty.
const NumTempBands = 5

// TempBandEdges are the band boundaries in °C: bands are (-inf, 30),
// [30, 40), [40, 50), [50, 60), [60, +inf).
var TempBandEdges = [NumTempBands - 1]float64{30, 40, 50, 60}

// TempBandOf returns the band index of a temperature.
func TempBandOf(c float64) int {
	for i, e := range TempBandEdges {
		if c < e {
			return i
		}
	}
	return NumTempBands - 1
}

// TempBandLabel names band b for reports.
func TempBandLabel(b int) string {
	switch {
	case b <= 0:
		return fmt.Sprintf("<%.0f°C", TempBandEdges[0])
	case b >= NumTempBands-1:
		return fmt.Sprintf(">=%.0f°C", TempBandEdges[NumTempBands-2])
	default:
		return fmt.Sprintf("%.0f-%.0f°C", TempBandEdges[b-1], TempBandEdges[b])
	}
}

// BandSummary is the run-long occupancy of one temperature band.
type BandSummary struct {
	Band      int
	Label     string
	MeanGPUs  float64 // average GPUs in the band per window
	MaxGPUs   float64 // worst single window
	MeanShare float64 // MeanGPUs / total GPUs
}

// thermalBandsFrom reduces the per-window band counts to the §2 dashboard
// view by folding them, window by window, through a BandOccupancy; a band
// series shorter than the others reads as NaN past its end.
func thermalBandsFrom(bands [NumTempBands]*tsagg.Series, nodes int) ([]BandSummary, error) {
	if bands[0] == nil {
		return nil, fmt.Errorf("core: run data has no band series")
	}
	windows := 0
	for _, s := range bands {
		windows = max(windows, s.Len())
	}
	var occ BandOccupancy
	for i := 0; i < windows; i++ {
		var counts [NumTempBands]float64
		for b, s := range bands {
			counts[b] = math.NaN()
			if i < s.Len() {
				counts[b] = s.Vals[i]
			}
		}
		occ.Add(counts)
	}
	return occ.Summary(nodes), nil
}

// BandOccupancy is the §2 band-occupancy analysis as an online operator:
// it folds one window's GPU count per band at a time, in window order, and
// Summary reduces what it has seen to the run-long occupancy.
type BandOccupancy struct {
	acc [NumTempBands]stats.Moments
}

// Add folds one window's GPU count per band. A NaN count, a window the
// band's series does not carry, leaves that band untouched.
//
//lint:detroot
func (o *BandOccupancy) Add(counts [NumTempBands]float64) {
	for b, v := range counts {
		if !math.IsNaN(v) {
			o.acc[b].Add(v)
		}
	}
}

// Summary reduces the windows folded so far; shares are of nodes × GPUs
// per node.
func (o *BandOccupancy) Summary(nodes int) []BandSummary {
	totalGPUs := float64(nodes * units.GPUsPerNode)
	out := make([]BandSummary, NumTempBands)
	for b, m := range o.acc {
		out[b] = BandSummary{
			Band:     b,
			Label:    TempBandLabel(b),
			MeanGPUs: m.Mean(),
			MaxGPUs:  m.Max,
		}
		if totalGPUs > 0 {
			out[b].MeanShare = m.Mean() / totalGPUs
		}
	}
	return out
}
