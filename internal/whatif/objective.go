package whatif

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/units"
)

// Report is the objective vector of one scenario evaluation: everything
// the search strategies score, plus the run identity that makes the sweep
// log a reproducible artifact.
type Report struct {
	Scenario Scenario `json:"scenario"`
	Label    string   `json:"label"`
	Hash     string   `json:"hash"` // canonical scenario hash, hex
	Seed     uint64   `json:"seed"` // derived run identity

	// Energy and efficiency.
	MeanPUE        float64 `json:"mean_pue"`
	ITEnergyMWh    float64 `json:"it_energy_mwh"`
	TotalEnergyMWh float64 `json:"total_energy_mwh"`

	// Power shape: the peak and 99th percentile of the cluster's true
	// power, what a power cap trades scheduling cost against.
	PeakPowerMW float64 `json:"peak_power_mw"`
	P99PowerMW  float64 `json:"p99_power_mw"`

	// Thermal health: time with any GPU in the top (>=60 °C) band, and
	// the GPU-weighted integral of that occupancy.
	ViolationSec    float64 `json:"violation_sec"`
	ViolationGPUSec float64 `json:"violation_gpu_sec"`

	// Overcooling margin: cooling delivered beyond the load.
	OvercoolingTonH      float64 `json:"overcooling_tonh"`
	OvercoolingEnergyKWh float64 `json:"overcooling_energy_kwh"`

	// Reliability and throughput.
	Failures      int     `json:"failures"`
	JobsCompleted int     `json:"jobs_completed"`
	JobsSkipped   int     `json:"jobs_skipped"`
	Utilization   float64 `json:"utilization"`
	// JobsPlaced counts the allocation log: every job the run scheduled,
	// including those set to start after its span; MeanWaitSec is their
	// mean submit-to-start wait.
	JobsPlaced  int     `json:"jobs_placed"`
	MeanWaitSec float64 `json:"mean_wait_sec"`

	// Score is the weighted scalar objective (lower is better).
	Score float64 `json:"score"`
}

// Weights combines the objective vector into the scalar the searches
// minimize. Each weight is a cost per unit; zero drops the term.
type Weights struct {
	// EnergyMWh prices total facility energy (IT + cooling), per MWh.
	EnergyMWh float64 `json:"energy_mwh"`
	// ViolationHour prices each hour with any GPU in the top thermal band.
	ViolationHour float64 `json:"violation_hour"`
	// OvercoolingTonH prices each ton-hour of excess cooling.
	OvercoolingTonH float64 `json:"overcooling_tonh"`
	// Failure prices each injected GPU XID event.
	Failure float64 `json:"failure"`
	// SkippedJob prices each job the scheduler could never start.
	SkippedJob float64 `json:"skipped_job"`
}

// DefaultWeights balances the terms for the catalog's scaled studies:
// energy is the base currency, a violation-hour costs a day of a
// megawatt-hour's worth, and throughput losses dominate both.
func DefaultWeights() Weights {
	return Weights{
		EnergyMWh:       1,
		ViolationHour:   25,
		OvercoolingTonH: 0.02,
		Failure:         0.5,
		SkippedJob:      5,
	}
}

// Score evaluates the weighted scalar objective (lower is better).
func (w Weights) Score(r *Report) float64 {
	return w.EnergyMWh*r.TotalEnergyMWh +
		w.ViolationHour*r.ViolationSec/units.SecondsPerHour +
		w.OvercoolingTonH*r.OvercoolingTonH +
		w.Failure*float64(r.Failures) +
		w.SkippedJob*float64(r.JobsSkipped)
}

// assessMetrics fills the purely source-derived metric block shared by
// Assess and AssessSource — energy, mean PUE, peak and p99 power, thermal
// violations, overcooling, placed jobs and their mean wait — and returns
// the run's end time for job-completion cuts.
func assessMetrics(src source.RunSource, rep *Report) (endTime int64, err error) {
	it, err := src.Series(source.SeriesClusterTruePower)
	if err != nil {
		return 0, err
	}
	pue, err := src.Series(source.SeriesPUE)
	if err != nil {
		return 0, err
	}
	top, err := src.Series(source.GPUBandSeries(core.NumTempBands - 1))
	if err != nil {
		return 0, err
	}
	if it.Len() == 0 || pue.Len() != it.Len() || top.Len() != it.Len() {
		return 0, fmt.Errorf("inconsistent series lengths")
	}
	step := float64(it.Step)
	var itJ, totJ, peakW float64
	for i, v := range it.Vals {
		if math.IsNaN(v) {
			continue
		}
		peakW = math.Max(peakW, v)
		itJ += v * step
		if p := pue.Vals[i]; !math.IsNaN(p) && p >= 1 {
			totJ += v * p * step
		} else {
			totJ += v * step
		}
		if n := top.Vals[i]; !math.IsNaN(n) && n > 0 {
			rep.ViolationSec += step
			rep.ViolationGPUSec += n * step
		}
	}
	rep.ITEnergyMWh = units.Joules(itJ).MWh()
	rep.TotalEnergyMWh = units.Joules(totJ).MWh()
	rep.PeakPowerMW = peakW / units.WattsPerMW
	rep.P99PowerMW = stats.Quantile(it.Vals, 0.99) / units.WattsPerMW
	if itJ > 0 {
		rep.MeanPUE = totJ / itJ
	} else {
		rep.MeanPUE = math.NaN()
	}
	oc, err := core.OvercoolingFromSource(src)
	if err != nil {
		return 0, err
	}
	rep.OvercoolingTonH = oc.ExcessTonHours
	rep.OvercoolingEnergyKWh = oc.ExcessEnergyKWh
	allocs, err := src.Allocations()
	if err != nil {
		return 0, err
	}
	var waitSec float64
	for i := range allocs {
		waitSec += float64(allocs[i].BeginTime - allocs[i].SubmitTime)
	}
	if rep.JobsPlaced = len(allocs); rep.JobsPlaced > 0 {
		rep.MeanWaitSec = waitSec / float64(rep.JobsPlaced)
	}
	return it.Start + int64(it.Len())*it.Step, nil
}

// Assess reduces one completed run to its objective report through the
// unified data plane: the same FromSource analyses the dashboards and the
// archive tier run, applied to the run's in-memory source. Run-level
// facts the data plane cannot serve (skipped jobs, the scheduler's own
// utilization figure) come from the sim result.
func Assess(d *core.RunData, res *sim.Result, scn Scenario, seed uint64, w Weights) (Report, error) {
	rep := Report{
		Scenario: scn,
		Label:    scn.Label(),
		Hash:     fmt.Sprintf("%016x", scn.Hash()),
		Seed:     seed,
	}
	endTime, err := assessMetrics(d.Source(), &rep)
	if err != nil {
		return rep, fmt.Errorf("whatif: assess: %w", err)
	}
	rep.Failures = len(res.Failures)
	rep.JobsSkipped = res.Skipped
	rep.Utilization = res.Utilization
	for i := range res.Allocations {
		if res.Allocations[i].EndTime <= endTime {
			rep.JobsCompleted++
		}
	}
	rep.Score = w.Score(&rep)
	return rep, nil
}

// AssessSource reduces any RunSource — a live run's memory source or a
// re-opened archive — to the objective report using only what the source
// serves: failures from the failure log, completed jobs and utilization
// from the job records. JobsSkipped is not observable from a source
// (skipped jobs never produce records) and reads 0. Because every input is
// FromSource, the report is byte-identical whether computed before
// archiving or after re-opening the archive (the memory/archive parity
// invariant) — the scenario subsystem's run → archive → report path
// depends on exactly this.
func AssessSource(src source.RunSource, w Weights) (Report, error) {
	var rep Report
	endTime, err := assessMetrics(src, &rep)
	if err != nil {
		return rep, fmt.Errorf("whatif: assess source: %w", err)
	}
	meta, err := src.Meta()
	if err != nil {
		return rep, fmt.Errorf("whatif: assess source: %w", err)
	}
	evs, err := src.Failures()
	if err != nil {
		return rep, fmt.Errorf("whatif: assess source: %w", err)
	}
	rep.Failures = len(evs)
	recs, err := src.JobRecords()
	if err != nil {
		return rep, fmt.Errorf("whatif: assess source: %w", err)
	}
	var nodeSec float64
	for i := range recs {
		r := &recs[i]
		if r.EndTime <= endTime {
			rep.JobsCompleted++
		}
		b, e := r.BeginTime, r.EndTime
		if b < meta.StartTime {
			b = meta.StartTime
		}
		if e > endTime {
			e = endTime
		}
		if e > b {
			nodeSec += float64(r.Nodes) * float64(e-b)
		}
	}
	if span := float64(meta.SpanSec()) * float64(meta.Nodes); span > 0 {
		rep.Utilization = nodeSec / span
	}
	rep.Score = w.Score(&rep)
	return rep, nil
}
