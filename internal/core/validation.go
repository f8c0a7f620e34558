package core

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/tsagg"
)

// MSBValidation is the Figure 4 comparison for one main switchboard:
// per-window differences between the meter reading and the per-node sensor
// summation, plus the phase agreement of their oscillations.
type MSBValidation struct {
	MSB        int
	N          int     // windows compared
	MeanDiffW  float64 // mean of (meter - summation)
	StdDiffW   float64
	Corr       float64 // Pearson correlation of the two series (in-phase check)
	MeanMeterW float64
	MeanSumW   float64
}

// ValidationReport is the full Figure 4 result.
type ValidationReport struct {
	PerMSB []MSBValidation
	// MeanDiffAllW is the mean difference across all MSBs (the paper
	// reports −128.83 kW at full scale).
	MeanDiffAllW float64
	// RelativeError is |Σsummation − Σmeter| / Σmeter (the paper's ~11 %).
	RelativeError float64
	// DiffSamples holds all per-window differences for distribution plots.
	DiffSamples []float64
}

// validationFrom compares the per-node summation against the MSB meters
// over the run (Figure 4).
func validationFrom(meters, sums []*tsagg.Series) (*ValidationReport, error) {
	if len(meters) == 0 || len(meters) != len(sums) {
		return nil, fmt.Errorf("core: run data has no meter series")
	}
	rep := &ValidationReport{}
	var diffSum float64
	var diffN int
	var meterTotal, sumTotal float64
	for m := range meters {
		meter := meters[m]
		sum := sums[m]
		var diffs []float64
		var meterVals, sumVals []float64
		for i := 0; i < meter.Len() && i < sum.Len(); i++ {
			mv, sv := meter.Vals[i], sum.Vals[i]
			if math.IsNaN(mv) || math.IsNaN(sv) {
				continue
			}
			diffs = append(diffs, mv-sv)
			meterVals = append(meterVals, mv)
			sumVals = append(sumVals, sv)
		}
		if len(diffs) == 0 {
			continue
		}
		// Scaled floors can leave a switchboard with no nodes; there is
		// nothing to validate against on such a board.
		if stats.Mean(sumVals) <= 0 {
			continue
		}
		mom := stats.Summarize(diffs)
		corr, err := stats.Pearson(meterVals, sumVals)
		if err != nil {
			corr = math.NaN()
		}
		mm := stats.Mean(meterVals)
		ms := stats.Mean(sumVals)
		rep.PerMSB = append(rep.PerMSB, MSBValidation{
			MSB: m, N: len(diffs),
			MeanDiffW: mom.Mean(), StdDiffW: mom.Std(),
			Corr: corr, MeanMeterW: mm, MeanSumW: ms,
		})
		rep.DiffSamples = append(rep.DiffSamples, diffs...)
		diffSum += mom.Sum()
		diffN += len(diffs)
		meterTotal += mm
		sumTotal += ms
	}
	if diffN == 0 {
		return nil, fmt.Errorf("core: no overlapping meter/summation windows")
	}
	rep.MeanDiffAllW = diffSum / float64(diffN)
	if meterTotal > 0 {
		rep.RelativeError = math.Abs(sumTotal-meterTotal) / meterTotal
	}
	return rep, nil
}
