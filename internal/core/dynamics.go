package core

import (
	"math"
	"sort"

	"repro/internal/dsp"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/tsagg"
	"repro/internal/units"
)

// JobDynamics is the per-job power-dynamics summary behind Figure 10.
type JobDynamics struct {
	AllocIdx  int
	Class     units.SchedulingClass
	Edges     []Edge
	EdgeCount int
	// Durations of resolved edges in seconds.
	Durations []float64
	// Dominant FFT component of the differenced job power series.
	FreqHz float64
	AmpW   float64
	HasFFT bool
}

// DynamicsReport is the Figure 10 content.
type DynamicsReport struct {
	PerJob []JobDynamics
	// FracNoEdges is the fraction of jobs experiencing no edges at all
	// (the paper reports 96.9 %).
	FracNoEdges float64
	// Per-class distributions over jobs WITH edges.
	EdgeCountCDF map[units.SchedulingClass]*stats.ECDF
	DurationCDF  map[units.SchedulingClass]*stats.ECDF // minutes
	// Per-class dominant frequency/amplitude samples (jobs with edges).
	Freqs map[units.SchedulingClass][]float64
	Amps  map[units.SchedulingClass][]float64
}

// jobPowerSeries returns the run's allocation log and, by allocation ID,
// each observed job's Σ input power series on the coarsening grid, from its
// first observed window to its last (a window no node of the job reported
// in is NaN), with the grid step.
func jobPowerSeries(src source.RunSource) ([]source.Allocation, map[int64]*tsagg.Series, int64, error) {
	meta, err := src.Meta()
	if err != nil {
		return nil, nil, 0, err
	}
	allocs, err := src.Allocations()
	if err != nil {
		return nil, nil, 0, err
	}
	rows, err := src.JobPower()
	if err != nil {
		return nil, nil, 0, err
	}
	step := meta.StepSec
	series := map[int64]*tsagg.Series{}
	for i := 0; i < len(rows); {
		j := i + 1
		for j < len(rows) && rows[j].AllocationID == rows[i].AllocationID {
			j++
		}
		job := rows[i:j]
		s := tsagg.NewSeries(job[0].T, step, int((job[len(job)-1].T-job[0].T)/step)+1)
		for _, r := range job {
			s.Set(r.T, r.PowerW)
		}
		series[rows[i].AllocationID] = s
		i = j
	}
	return allocs, series, step, nil
}

// Figure10Dynamics analyzes every observed job's power series: edge counts
// and durations (job-size-weighted threshold) and the FFT of the
// differenced series. Jobs shorter than 3 windows are counted but carry no
// FFT.
func Figure10Dynamics(src source.RunSource) (*DynamicsReport, error) {
	allocs, series, step, err := jobPowerSeries(src)
	if err != nil {
		return nil, err
	}
	rep := &DynamicsReport{
		EdgeCountCDF: map[units.SchedulingClass]*stats.ECDF{},
		DurationCDF:  map[units.SchedulingClass]*stats.ECDF{},
		Freqs:        map[units.SchedulingClass][]float64{},
		Amps:         map[units.SchedulingClass][]float64{},
	}
	counts := map[units.SchedulingClass][]float64{}
	durations := map[units.SchedulingClass][]float64{}
	noEdges, total := 0, 0
	rate := 1.0 / float64(step)
	for i := range allocs {
		a := &allocs[i]
		s, ok := series[a.AllocationID]
		if !ok {
			continue
		}
		vals := s.Clean()
		total++
		jd := JobDynamics{
			AllocIdx: i,
			Class:    units.SchedulingClass(a.Class),
			Edges:    DetectEdges(s, a.Nodes),
		}
		jd.EdgeCount = len(jd.Edges)
		if jd.EdgeCount == 0 {
			noEdges++
		} else {
			counts[jd.Class] = append(counts[jd.Class], float64(jd.EdgeCount))
			for _, e := range jd.Edges {
				if e.DurationSec >= 0 {
					mins := float64(e.DurationSec) / 60
					jd.Durations = append(jd.Durations, mins)
					durations[jd.Class] = append(durations[jd.Class], mins)
				}
			}
			// FFT of the differenced power series: one dominant
			// (frequency, amplitude) pair per job with edges, as in the
			// paper's method description.
			if f, amp, ok := dsp.DominantSwing(vals, rate); ok {
				jd.FreqHz, jd.AmpW, jd.HasFFT = f, amp, true
				rep.Freqs[jd.Class] = append(rep.Freqs[jd.Class], f)
				rep.Amps[jd.Class] = append(rep.Amps[jd.Class], amp)
			}
		}
		rep.PerJob = append(rep.PerJob, jd)
	}
	if total > 0 {
		rep.FracNoEdges = float64(noEdges) / float64(total)
	}
	for c, xs := range counts {
		rep.EdgeCountCDF[c] = stats.NewECDF(xs)
	}
	for c, xs := range durations {
		rep.DurationCDF[c] = stats.NewECDF(xs)
	}
	return rep, nil
}

// EdgeSnapshotSet is one amplitude bin of Figure 11: superimposed cluster
// power and PUE around the bin's rising edges.
type EdgeSnapshotSet struct {
	AmplitudeMW int
	Count       int
	Power       *SnapshotStack
	PUE         *SnapshotStack
}

// Figure11EdgeSnapshots detects rising edges on the cluster power series,
// bins them by MW amplitude, and superimposes the surrounding
// [-beforeSec, +afterSec] power and PUE windows. Bins are returned in
// ascending amplitude order.
func Figure11EdgeSnapshots(src source.RunSource, beforeSec, afterSec int64) ([]EdgeSnapshotSet, error) {
	meta, err := src.Meta()
	if err != nil {
		return nil, err
	}
	s, err := seriesOf(src, source.SeriesClusterPower, source.SeriesPUE)
	if err != nil {
		return nil, err
	}
	power, pue := s[0], s[1]
	// Amplitude classes are defined in full-scale-equivalent megawatts so
	// the analysis produces the paper's 1–7 MW columns at any system size.
	binW := ScaleEquivalentMW(meta.Nodes)
	bins := BinEdges(DetectEdgesThreshold(power, binW), binW, true)
	var mws []int
	for mw := range bins {
		mws = append(mws, mw)
	}
	sort.Ints(mws)
	var out []EdgeSnapshotSet
	for _, mw := range mws {
		times := EdgeTimes(bins[mw])
		out = append(out, EdgeSnapshotSet{
			AmplitudeMW: mw,
			Count:       len(times),
			Power:       SuperimposeAround(power, times, beforeSec, afterSec),
			PUE:         SuperimposeAround(pue, times, beforeSec, afterSec),
		})
	}
	return out, nil
}

// ClusterEdgeThresholdMW returns the cluster-level edge threshold in MW
// for the run's system size.
func ClusterEdgeThresholdMW(nodes int) float64 {
	return float64(units.EdgeThresholdPerNode) * float64(nodes) / units.WattsPerMW
}

// steepestSwings returns the largest single-window rise and fall (W) on a
// power series, matching the paper's complementary statistic
// (+5.79 MW / −5.89 MW at full scale).
func steepestSwings(s *tsagg.Series) (maxRise, maxFall float64) {
	for i := 1; i < s.Len(); i++ {
		a, b := s.Vals[i-1], s.Vals[i]
		if math.IsNaN(a) || math.IsNaN(b) {
			continue
		}
		diff := b - a
		if diff > maxRise {
			maxRise = diff
		}
		if diff < maxFall {
			maxFall = diff
		}
	}
	return maxRise, maxFall
}
