package core

import (
	"fmt"

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
// view; total GPUs is nodes × GPUs per node.
func thermalBandsFrom(bands [NumTempBands]*tsagg.Series, nodes int) ([]BandSummary, error) {
	if bands[0] == nil {
		return nil, fmt.Errorf("core: run data has no band series")
	}
	totalGPUs := float64(nodes * units.GPUsPerNode)
	out := make([]BandSummary, NumTempBands)
	for b := 0; b < NumTempBands; b++ {
		vals := bands[b].Clean()
		m := stats.Summarize(vals)
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
	return out, nil
}
