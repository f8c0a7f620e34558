// Package repro is the public API of the Summit power/energy/thermal
// reproduction (Shin et al., SC '21): a closed-loop digital twin of the
// Summit HPC data center plus the paper's full analysis pipeline.
//
// The typical flow is:
//
//	cfg := repro.ScaledConfig(256, 6*time.Hour)
//	data, result, err := repro.Simulate(cfg)
//	rep, err := repro.Figure4Validation(data)
//
// Every table and figure of the paper's evaluation has a matching
// Figure*/Table* entry point; Report* helpers render them as text.
package repro

import (
	"time"

	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/units"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Config parameterizes a simulation run. It is the digital twin's knob
// set: system size, span, coarsening window, sampling, workload volume and
// failure acceleration.
type Config = sim.Config

// RunData is the collected telemetry/job/facility/failure dataset of a run
// (the in-memory equivalent of the paper's Datasets 0–13).
type RunData = core.RunData

// Result summarizes a completed simulation.
type Result = sim.Result

// Allocation is one scheduled job placement.
type Allocation = scheduler.Allocation

// Job is one batch job and its application power profile.
type Job = workload.Job

// FailureEvent is one GPU XID error with its captured context.
type FailureEvent = failures.Event

// SchedulingClass re-exports the Table 3 class identifiers.
type SchedulingClass = units.SchedulingClass

// Scheduling classes (paper Table 3).
const (
	Class1 = units.Class1
	Class2 = units.Class2
	Class3 = units.Class3
	Class4 = units.Class4
	Class5 = units.Class5
)

// SummitNodes is the full-scale system size.
const SummitNodes = units.SummitNodes

// ScaledConfig returns a deterministic configuration for a scaled system
// of the given node count over the given span, with workload volume
// proportional to Summit's ~840k jobs/year.
func ScaledConfig(nodes int, span time.Duration) Config {
	return sim.Scaled(nodes, int64(span/time.Second))
}

// Simulate builds the digital twin from cfg, runs it with the standard
// collector attached, and returns the run data and simulation result.
func Simulate(cfg Config) (*RunData, *Result, error) {
	return core.CollectRun(cfg)
}

// SimulateWithVariability additionally captures per-GPU detail for the
// run's exemplar (largest) job, for the Figure 17 analysis.
func SimulateWithVariability(cfg Config) (*RunData, *core.VariabilityCollector, *Result, error) {
	var vc *core.VariabilityCollector
	d, res, err := core.CollectRun(cfg, func(s *sim.Sim) (sim.Observer, error) {
		var err error
		vc, err = core.NewVariabilityCollector(s, -1)
		return vc, err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return d, vc, res, nil
}

// Data planes. A RunSource abstracts where a run's telemetry lives — in
// memory right after Simulate, or in a columnar archive on disk — so the
// same analyses run over both and cannot drift.

// RunSource is the unified read interface over a run (live or archived).
type RunSource = source.RunSource

// ArchiveConfig parameterizes OpenArchive.
type ArchiveConfig = source.ArchiveConfig

// OpenArchive opens an archive directory written by WriteDatasets (or the
// summitsim CLI) as a RunSource (the archived plane). Reads are
// partition-pruned, column-selective and cached.
func OpenArchive(cfg ArchiveConfig) (RunSource, error) { return source.OpenArchive(cfg) }

// WriteDatasets archives a run into dir as daily-partitioned columnar
// datasets readable by OpenArchive, cmd/analyze and cmd/queryd.
func WriteDatasets(dir string, d *RunData) error { return core.WriteDatasets(dir, d) }

// Analysis entry points (one per paper table/figure). These are thin,
// documented aliases over internal/core so downstream users never import
// internal packages.

// Figure4Validation compares per-node sensor summation with MSB meters.
func Figure4Validation(d *RunData) (*core.ValidationReport, error) {
	return core.ValidationFromSource(d.Source())
}

// Figure5Trends summarizes weekly power/energy/PUE.
func Figure5Trends(d *RunData) (*core.TrendReport, error) {
	return core.Figure5Trends(d)
}

// BuildJobRecords reduces job series to per-job records.
func BuildJobRecords(d *RunData) []core.JobRecord { return core.BuildJobRecords(d) }

// Figure6EnergyPower computes per-class (energy, max power) joint KDEs.
func Figure6EnergyPower(recs []core.JobRecord, gridN int) []core.EnergyPowerKDE {
	return core.Figure6EnergyPower(recs, gridN)
}

// Figure7JobCDFs computes the leadership-class job feature CDFs.
func Figure7JobCDFs(recs []core.JobRecord) []core.JobCDFs {
	return core.Figure7JobCDFs(recs)
}

// Figure8DomainBreakdown summarizes job power/energy by science domain.
func Figure8DomainBreakdown(recs []core.JobRecord) []core.DomainBreakdown {
	return core.Figure8DomainBreakdown(recs)
}

// Figure9ComponentKDE computes CPU-vs-GPU power joint KDEs per class group.
func Figure9ComponentKDE(recs []core.JobRecord, gridN int) []core.ComponentKDE {
	return core.Figure9ComponentKDE(recs, gridN)
}

// Figure10Dynamics characterizes per-job power edges and FFT components.
func Figure10Dynamics(d *RunData) *core.DynamicsReport { return core.Figure10Dynamics(d) }

// Figure11EdgeSnapshots superimposes power/PUE around rising edges.
func Figure11EdgeSnapshots(d *RunData, before, after time.Duration) []core.EdgeSnapshotSet {
	return core.Figure11EdgeSnapshots(d, int64(before/time.Second), int64(after/time.Second))
}

// Figure12ThermalResponse superimposes thermal/cooling state around edges.
func Figure12ThermalResponse(d *RunData, before, after time.Duration) []core.ThermalResponseSet {
	return core.Figure12ThermalResponse(d, int64(before/time.Second), int64(after/time.Second))
}

// Table4Composition tallies the failure log by XID type.
func Table4Composition(d *RunData) []core.FailureComposition {
	return core.Table4Composition(d.Failures, d.Nodes)
}

// Figure13Correlation computes Bonferroni-corrected failure co-occurrence.
func Figure13Correlation(d *RunData, alpha float64) ([]core.CorrelationCell, error) {
	return core.Figure13Correlation(d.Failures, d.Nodes, alpha)
}

// Figure14FailuresPerProject ranks projects by failures per node-hour.
func Figure14FailuresPerProject(d *RunData, hardwareOnly bool, topN int) []core.ProjectFailureRate {
	return core.Figure14FailuresPerProject(d, hardwareOnly, topN)
}

// Figure15ThermalExtremity collects per-type failure thermal context.
func Figure15ThermalExtremity(d *RunData) []core.ThermalExtremity {
	return core.Figure15ThermalExtremity(d.Failures, d.Nodes, 0.8)
}

// Figure16Placement tallies failures per GPU slot.
func Figure16Placement(d *RunData, highlightOnly bool) []core.PlacementCounts {
	return core.Figure16Placement(d.Failures, highlightOnly)
}

// Figure17Variability reduces an exemplar job's per-GPU capture.
func Figure17Variability(vc *core.VariabilityCollector, instants int) (*core.VariabilityReport, error) {
	return core.Figure17Variability(vc, instants)
}

// Future-work features (paper §9): job power-profile fingerprinting.

// Fingerprint is a job's power-profile feature vector.
type Fingerprint = core.Fingerprint

// Portrait is a cluster of fingerprints (a user/project power portrait).
type Portrait = core.Portrait

// BuildFingerprints extracts one fingerprint per observed job.
func BuildFingerprints(d *RunData) []Fingerprint { return core.BuildFingerprints(d) }

// ClusterFingerprints groups fingerprints into k portraits via k-means.
func ClusterFingerprints(fps []Fingerprint, k int, seed uint64) ([]Portrait, error) {
	return core.ClusterFingerprints(fps, k, seed)
}

// EvaluateFingerprintPrediction scores portrait-based max-power prediction
// against a global-mean baseline.
func EvaluateFingerprintPrediction(fps []Fingerprint) (*core.PredictionReport, error) {
	return core.EvaluateFingerprintPrediction(fps)
}

// YearSurvey samples each month of 2020 with an independent scaled
// simulation and aggregates the seasonal power/PUE/chiller structure of
// Figure 5. Months run in parallel; the result is deterministic.
func YearSurvey(cfg core.YearSurveyConfig) ([]core.MonthlyTrend, error) {
	return core.YearSurvey(cfg)
}

// SummarizeYear reduces a year survey to the paper's headline PUE numbers.
func SummarizeYear(trends []core.MonthlyTrend) core.YearSummary {
	return core.SummarizeYear(trends)
}

// YearSurveyConfig re-exports the survey configuration.
type YearSurveyConfig = core.YearSurveyConfig

// PowerCapExperiment runs the paper's concluding what-if: the same
// workload scheduled under a sweep of power-aware admission caps
// (fractions of the uncapped peak), measuring the peak/average trade.
func PowerCapExperiment(base Config, capFracs []float64) ([]whatif.PowerCapOutcome, error) {
	return whatif.PowerCapExperiment(base, capFracs)
}

// ThermalBandSummary reduces the per-window GPU temperature band counts
// to the §2 operational dashboard view.
func ThermalBandSummary(d *RunData) ([]core.BandSummary, error) {
	return core.ThermalBandsFromSource(d.Source())
}

// Overcooling quantifies cooling delivered beyond the IT heat load
// (paper §5's overcooling observation).
func Overcooling(d *RunData) (*core.OvercoolingReport, error) {
	return core.OvercoolingFromSource(d.Source())
}

// EarlyWarningFromRun evaluates the §6.1 precursor→outcome diagnostic
// pairs over a run.
func EarlyWarningFromRun(d *RunData, window time.Duration) ([]core.PrecursorStats, error) {
	return core.EarlyWarningFromSource(d.Source(), int64(window/time.Second))
}

// CompareGenerations runs the §6-summary experiment: identical thermal
// context through the Summit failure model and a Titan-mode (hot-biased)
// model, quantifying the generation flip in failure thermal extremity.
func CompareGenerations(seed uint64, nodes, steps int, rateScale float64) (*core.GenerationComparison, error) {
	return core.CompareGenerations(seed, nodes, steps, rateScale)
}
