package core

import (
	"fmt"
	"math"

	"repro/internal/source"
	"repro/internal/stats"
)

// WeeklyTrend is one week's summary of a series (paper Figure 5 draws one
// box per week over the year).
type WeeklyTrend struct {
	Week int // 0-based week index from the run start
	Box  stats.BoxPlot
	Max  float64 // weekly maximum (overlaid for the power row)
}

// TrendReport is the Figure 5 content: weekly distributions of cluster
// power, weekly energy totals, and weekly PUE, plus the annual summaries
// the paper quotes (PUE 1.11 average, 1.22 in summer).
type TrendReport struct {
	PowerWeekly  []WeeklyTrend // W
	EnergyWeekly []float64     // J per week
	PUEWeekly    []WeeklyTrend
	MeanPUE      float64
	SummerPUE    float64 // mean PUE while chillers carry load; NaN if they never do
	ChillerFrac  float64 // fraction of windows on chilled water
	// PowerPUECorr is the Pearson correlation between cluster power and
	// PUE across windows; the paper observes the two are "noticeably
	// symmetric and inversely proportional" (strongly negative).
	PowerPUECorr float64
}

// Figure5Trends summarizes the run week by week. Runs shorter than one
// week produce a single partial "week".
func Figure5Trends(src source.RunSource) (*TrendReport, error) {
	meta, err := src.Meta()
	if err != nil {
		return nil, err
	}
	s, err := seriesOf(src, source.SeriesClusterPower, source.SeriesPUE, source.SeriesChillerTons)
	if err != nil {
		return nil, err
	}
	power, pue, chiller := s[0], s[1], s[2]
	if power.Len() == 0 {
		return nil, fmt.Errorf("core: no cluster power series")
	}
	const weekSec = 7 * 86400
	rep := &TrendReport{}
	end := power.End()
	week := 0
	for t0 := meta.StartTime; t0 < end; t0 += weekSec {
		t1 := t0 + weekSec
		wpower := power.Slice(t0, t1)
		pvals := wpower.Clean()
		if len(pvals) > 0 {
			box := stats.NewBoxPlot(pvals)
			rep.PowerWeekly = append(rep.PowerWeekly, WeeklyTrend{
				Week: week, Box: box, Max: box.Max,
			})
			rep.EnergyWeekly = append(rep.EnergyWeekly, wpower.Integrate())
		}
		if uvals := pue.Slice(t0, t1).Clean(); len(uvals) > 0 {
			box := stats.NewBoxPlot(uvals)
			rep.PUEWeekly = append(rep.PUEWeekly, WeeklyTrend{
				Week: week, Box: box, Max: box.Max,
			})
		}
		week++
	}
	// Annual PUE summaries: overall mean, and mean restricted to windows
	// where the chillers carry load (the "summer" condition).
	var pueSum, pueN, chillSum, chillN float64
	for i := 0; i < pue.Len(); i++ {
		u := pue.Vals[i]
		if math.IsNaN(u) {
			continue
		}
		pueSum += u
		pueN++
		if c := chiller.Vals[i]; !math.IsNaN(c) && c > 1 {
			chillSum += u
			chillN++
		}
	}
	if pueN > 0 {
		rep.MeanPUE = pueSum / pueN
		rep.ChillerFrac = chillN / pueN
	}
	rep.SummerPUE = math.NaN()
	if chillN > 0 {
		rep.SummerPUE = chillSum / chillN
	}
	// Inverse proportionality of power and PUE.
	var ps, us []float64
	for i := 0; i < pue.Len() && i < power.Len(); i++ {
		p, u := power.Vals[i], pue.Vals[i]
		if math.IsNaN(p) || math.IsNaN(u) {
			continue
		}
		ps = append(ps, p)
		us = append(us, u)
	}
	if corr, err := stats.Pearson(ps, us); err == nil {
		rep.PowerPUECorr = corr
	} else {
		rep.PowerPUECorr = math.NaN()
	}
	return rep, nil
}
