package repro

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/render"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/tsagg"
)

// WriteFigureData exports the plot-ready data behind every figure of the
// run src serves — in memory or archived — as CSV files in dir (one or more
// files per figure), so the paper's plots can be regenerated with any
// external plotting tool. Returns the files written.
func WriteFigureData(dir string, src source.RunSource) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	emit := func(name string, headers []string, cols ...[]float64) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render.CSV(f, headers, cols...); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}

	// Figure 4: per-window meter-vs-summation differences, when the run
	// has meters.
	if rep, err := core.ValidationFromSource(src); err == nil {
		if err := emit("fig4_diff_samples.csv",
			[]string{"meter_minus_summation_w"}, rep.DiffSamples); err != nil {
			return written, err
		}
	} else if !errors.Is(err, source.ErrUnavailable) {
		return written, fmt.Errorf("figure 4: %w", err)
	}

	// Figure 5: the cluster power / PUE time series.
	var fig5 [4]*tsagg.Series
	for i, name := range []string{source.SeriesClusterPower, source.SeriesPUE, source.SeriesTowerTons, source.SeriesChillerTons} {
		var err error
		if fig5[i], err = src.Series(name); err != nil {
			return written, err
		}
	}
	times := make([]float64, fig5[0].Len())
	for i := range times {
		times[i] = float64(fig5[0].TimeAt(i))
	}
	if err := emit("fig5_cluster_series.csv",
		[]string{"timestamp", "power_w", "pue", "tower_tons", "chiller_tons"},
		times, fig5[0].Vals, fig5[1].Vals, fig5[2].Vals, fig5[3].Vals); err != nil {
		return written, err
	}

	recs, err := src.JobRecords()
	if err != nil {
		return written, err
	}

	// Figure 6: per-job (energy, max power) scatter with class labels.
	var e6, p6, c6 []float64
	for _, r := range recs {
		if r.EnergyJ <= 0 || r.MaxPowerW <= 0 {
			continue
		}
		e6 = append(e6, math.Log10(r.EnergyJ))
		p6 = append(p6, math.Log10(r.MaxPowerW))
		c6 = append(c6, float64(r.Class))
	}
	if err := emit("fig6_energy_power.csv",
		[]string{"log10_energy_j", "log10_max_power_w", "class"}, e6, p6, c6); err != nil {
		return written, err
	}

	// Figure 7: CDF curves per leadership class.
	for _, c := range core.Figure7JobCDFs(recs) {
		xs, ys := c.MaxMW.Curve(100)
		wx, wy := c.WallHrs.Curve(100)
		name := fmt.Sprintf("fig7_cdf_%s.csv", c.Class)
		if err := emit(name,
			[]string{"max_power_mw", "cdf_max_power", "wall_hours", "cdf_wall"},
			xs, ys, padTo(wx, len(xs)), padTo(wy, len(xs))); err != nil {
			return written, err
		}
	}

	// Figure 10: per-job dynamics scatter.
	dyn, err := core.Figure10Dynamics(src)
	if err != nil {
		return written, err
	}
	var edges10, freq10, amp10, class10 []float64
	for _, j := range dyn.PerJob {
		if j.EdgeCount == 0 {
			continue
		}
		edges10 = append(edges10, float64(j.EdgeCount))
		class10 = append(class10, float64(j.Class))
		if j.HasFFT {
			freq10 = append(freq10, j.FreqHz)
			amp10 = append(amp10, j.AmpW)
		} else {
			freq10 = append(freq10, math.NaN())
			amp10 = append(amp10, math.NaN())
		}
	}
	if err := emit("fig10_job_dynamics.csv",
		[]string{"edges", "dominant_freq_hz", "dominant_amp_w", "class"},
		edges10, freq10, amp10, class10); err != nil {
		return written, err
	}

	// Figures 11/12: superimposed snapshot stacks per amplitude bin.
	sets, err := core.Figure12ThermalResponse(src, snapshotBeforeSec, snapshotAfterSec)
	if err != nil {
		return written, err
	}
	for _, set := range sets {
		dirn := "rise"
		if !set.Rising {
			dirn = "fall"
		}
		off := make([]float64, len(set.Power.OffsetSec))
		for i, o := range set.Power.OffsetSec {
			off[i] = float64(o)
		}
		name := fmt.Sprintf("fig12_%dmw_%s.csv", set.AmplitudeMW, dirn)
		if err := emit(name,
			[]string{"offset_sec", "power_w", "power_ci", "pue",
				"gpu_temp_mean_c", "gpu_temp_max_c", "cpu_temp_mean_c",
				"mtw_supply_c", "mtw_return_c", "tower_tons", "chiller_tons"},
			off, set.Power.Mean, set.Power.CIHalf, set.PUE.Mean,
			set.GPUTempMean.Mean, set.GPUTempMax.Mean, set.CPUTempMean.Mean,
			set.SupplyC.Mean, set.ReturnC.Mean,
			set.TowerTons.Mean, set.ChillerTons.Mean); err != nil {
			return written, err
		}
	}

	// Figure 15: per-type z-score densities.
	tes, err := core.Figure15ThermalExtremity(src, 0.8)
	if err != nil {
		return written, err
	}
	for _, te := range tes {
		kde := stats.NewKDE1D(te.ZScores, 0)
		xs, ys := kde.Curve(100)
		if xs == nil {
			continue
		}
		name := fmt.Sprintf("fig15_zdensity_%d.csv", int(te.Type))
		if err := emit(name, []string{"z_score", "density"}, xs, ys); err != nil {
			return written, err
		}
	}

	// Figure 16: per-slot counts.
	var slotType, slot16, count16 []float64
	placement, err := core.Figure16Placement(src, true)
	if err != nil {
		return written, err
	}
	for _, p := range placement {
		for s, c := range p.Counts {
			slotType = append(slotType, float64(p.Type))
			slot16 = append(slot16, float64(s))
			count16 = append(count16, float64(c))
		}
	}
	if err := emit("fig16_placement.csv",
		[]string{"xid_type", "gpu_slot", "count"}, slotType, slot16, count16); err != nil {
		return written, err
	}

	// Figure 17: per-instant GPU power/temperature distributions, when the
	// run had a job to pick.
	if rep, err := core.Figure17Variability(src); err == nil {
		var inst, pMed, pLo, pHi, tMed, tLo, tHi []float64
		for i, v := range rep.Instants {
			inst = append(inst, float64(i+1))
			pMed = append(pMed, v.PowerBox.Median)
			pLo = append(pLo, v.PowerBox.Q1)
			pHi = append(pHi, v.PowerBox.Q3)
			tMed = append(tMed, v.TempBox.Median)
			tLo = append(tLo, v.TempBox.Q1)
			tHi = append(tHi, v.TempBox.Q3)
		}
		if err := emit("fig17_instants.csv",
			[]string{"instant", "power_median_w", "power_q1", "power_q3",
				"temp_median_c", "temp_q1", "temp_q3"},
			inst, pMed, pLo, pHi, tMed, tLo, tHi); err != nil {
			return written, err
		}
	} else if !errors.Is(err, source.ErrUnavailable) {
		return written, fmt.Errorf("figure 17: %w", err)
	}
	return written, nil
}

// padTo truncates or NaN-pads xs to length n so CSV columns align.
func padTo(xs []float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if i < len(xs) {
			out[i] = xs[i]
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}
