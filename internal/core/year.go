package core

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/units"
)

// MonthlyTrend is one month's summary in the year survey — the sampled
// equivalent of one group of weekly boxes in the paper's Figure 5.
type MonthlyTrend struct {
	Month       int // 1..12
	Power       stats.BoxPlot
	EnergyJ     float64 // energy over the sampled span
	MeanPUE     float64
	MaxPUE      float64
	ChillerFrac float64 // fraction of windows on chilled water
	WetBulbMean float64
}

// YearSurveyConfig parameterizes the sampled-year analysis.
type YearSurveyConfig struct {
	Seed  uint64
	Nodes int
	// SpanPerMonthSec is the simulated span sampled from each month.
	SpanPerMonthSec int64
	// Jobs per month sample.
	Jobs int
}

// YearSurvey reproduces the seasonal structure of Figure 5 by simulating a
// sampled span in the middle of each 2020 month and aggregating power,
// energy, PUE and chilled-water usage. The twelve simulations run in
// parallel and are individually deterministic.
func YearSurvey(cfg YearSurveyConfig) ([]MonthlyTrend, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("core: non-positive node count %d", cfg.Nodes)
	}
	if cfg.SpanPerMonthSec <= 0 {
		cfg.SpanPerMonthSec = 6 * units.SecondsPerHour
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 40
	}
	const yearStart = 1_577_836_800 // 2020-01-01 UTC
	// Mid-month day-of-year offsets for 2020 (leap year).
	midDay := [12]int{15, 45, 75, 106, 136, 167, 197, 228, 259, 289, 320, 350}
	trends, err := parallel.MapErr(12, 0, func(m int) (MonthlyTrend, error) {
		scfg := sim.Config{
			Seed:             cfg.Seed + uint64(m),
			Nodes:            cfg.Nodes,
			StartTime:        yearStart + int64(midDay[m])*86400,
			DurationSec:      cfg.SpanPerMonthSec,
			StepSec:          10,
			SamplesPerWindow: 1,
			Jobs:             cfg.Jobs,
			FailureRateScale: 1,
		}
		data, _, err := CollectRun(scfg)
		if err != nil {
			return MonthlyTrend{}, err
		}
		series := data.Source().SeriesByName
		power, pue, chiller := series[source.SeriesClusterPower], series[source.SeriesPUE], series[source.SeriesChillerTons]
		t := MonthlyTrend{
			Month:   m + 1,
			Power:   stats.NewBoxPlot(power.Clean()),
			EnergyJ: power.Integrate(),
		}
		var pueSum, pueMax float64
		var pueN, chillN, winN float64
		for i, u := range pue.Vals {
			if !math.IsNaN(u) {
				pueSum += u
				pueN++
				if u > pueMax {
					pueMax = u
				}
			}
			if c := chiller.Vals[i]; !math.IsNaN(c) {
				winN++
				if c > 1 {
					chillN++
				}
			}
		}
		if pueN > 0 {
			t.MeanPUE = pueSum / pueN
			t.MaxPUE = pueMax
		}
		if winN > 0 {
			t.ChillerFrac = chillN / winN
		}
		t.WetBulbMean = stats.Mean(series[source.SeriesWetBulbC].Clean())
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	return trends, nil
}

// YearSummary aggregates a survey into the paper's headline numbers.
type YearSummary struct {
	MeanPUE       float64 // annual average (paper: 1.11)
	ChillerPUE    float64 // mean PUE of months with chiller usage (paper: ~1.22 summer)
	ChillerMonths int     // months with any chilled-water usage
	ChillerFrac   float64 // fraction of all sampled windows on chilled water (paper: ~20%)
}

// SummarizeYear reduces monthly trends to the annual summary.
func SummarizeYear(trends []MonthlyTrend) YearSummary {
	var s YearSummary
	if len(trends) == 0 {
		return s
	}
	var pueSum, chillPUE, chillFracSum float64
	for _, t := range trends {
		pueSum += t.MeanPUE
		chillFracSum += t.ChillerFrac
		if t.ChillerFrac > 0.01 {
			s.ChillerMonths++
			chillPUE += t.MeanPUE
		}
	}
	s.MeanPUE = pueSum / float64(len(trends))
	s.ChillerFrac = chillFracSum / float64(len(trends))
	if s.ChillerMonths > 0 {
		s.ChillerPUE = chillPUE / float64(s.ChillerMonths)
	}
	return s
}
