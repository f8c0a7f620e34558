package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/source"
	"repro/internal/stats"
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

// ValidationFromSource computes the Figure 4 meter-vs-summation comparison
// over the meter_power_<m> / msb_sensor_sum_<m> pairs, in switchboard order
// up to the first absent meter. A meter without its sum is an error naming
// the sum, never a report on fewer switchboards.
func ValidationFromSource(src source.RunSource) (*ValidationReport, error) {
	rep := &ValidationReport{}
	var diffSum float64
	var pairs, diffN int
	var meterTotal, sumTotal float64
	for m := 0; ; m++ {
		meter, err := src.Series(source.MeterSeriesName(m))
		if errors.Is(err, source.ErrUnknownSeries) {
			break
		}
		if err != nil {
			return nil, err
		}
		sum, err := src.Series(source.MSBSumSeriesName(m))
		if err != nil {
			return nil, err
		}
		pairs++
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
	if pairs == 0 {
		return nil, fmt.Errorf("core: no meter series (an archive from an older build lacks them): %w",
			source.ErrUnavailable)
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
