// Package source unifies the reproduction's two data planes — the live
// in-memory run data produced by the simulator's collector, and the
// daily-partitioned columnar archive on disk — behind one RunSource
// interface. Every analysis consumes a RunSource, so the identical analysis
// code runs over a just-simulated span and over an archived year (the
// paper's workflow: the same pipeline serves near-real-time dashboards and
// the 8.5 TB historical archive).
//
// Two implementations exist: MemorySource (a run's collected series,
// job records and failure log, held in memory) and ArchiveSource (the
// store-backed archive, read through partition pruning, column-selective
// streaming decode, and the shared decoded-table cache). A simulated run
// archived and re-opened must answer every accessor bit-identically to its
// in-memory source — the parity test in internal/core enforces this.
//
// Every series is reached by name through Series, the per-MSB meter pairs
// of Figure 4 included (MeterSeriesName, MSBSumSeriesName). Each whole-run
// log — job records, failures, the scheduler's allocations, the per-job
// power series and Figure 17's exemplar frames — has one accessor. The
// per-node node-power dataset is not a RunSource accessor: this package
// writes it (NodeDayWriter) and the query tier's engine serves it.
package source

import (
	"errors"
	"fmt"

	"repro/internal/failures"
	"repro/internal/tsagg"
)

// Canonical series names: the cluster/facility/thermal series every
// RunSource serves, named exactly as the archive's cluster-dataset columns
// so the live plane, the archive and the query tier agree on one schema.
const (
	SeriesClusterPower     = "sum_inp"      // Σ sensor input power (W)
	SeriesClusterTruePower = "sum_inp_true" // ground-truth Σ input power (W)
	SeriesCPUPower         = "cpu_power"    // Σ CPU component power (W)
	SeriesGPUPower         = "gpu_power"    // Σ GPU component power (W)
	SeriesPUE              = "pue"
	SeriesSupplyC          = "mtwst" // medium-temp water supply (°C)
	SeriesReturnC          = "mtwrt" // medium-temp water return (°C)
	SeriesTowerTons        = "tower_tons"
	SeriesChillerTons      = "chiller_tons"
	SeriesTowerCount       = "tower_count"
	SeriesChillerCount     = "chiller_count"
	SeriesWetBulbC         = "wet_bulb"
	SeriesGPUTempMean      = "gpu_core_temp_mean"
	SeriesGPUTempMax       = "gpu_core_temp_max"
	SeriesCPUTempMean      = "cpu_core_temp_mean"
	SeriesCPUTempMax       = "cpu_core_temp_max"
)

// GPUBandSeries names the per-window GPU temperature-band count series for
// band b (the §2 dashboard histogram).
func GPUBandSeries(b int) string { return fmt.Sprintf("gpu_band_%d", b) }

// MeterSeriesName names the per-MSB meter reading series for switchboard m.
func MeterSeriesName(m int) string { return fmt.Sprintf("meter_power_%d", m) }

// MSBSumSeriesName names the per-MSB sensor summation series for
// switchboard m.
func MSBSumSeriesName(m int) string { return fmt.Sprintf("msb_sensor_sum_%d", m) }

// Sentinel errors shared by every implementation.
var (
	// ErrUnknownSeries marks a series name the source does not carry.
	ErrUnknownSeries = errors.New("source: unknown series")
	// ErrUnavailable marks data the source cannot provide at all (e.g. an
	// archive without its failure log, or a run with no meter series).
	ErrUnavailable = errors.New("source: unavailable")
)

// Meta describes the run a source covers: the coarsening grid and the
// system size, from which the analyses derive thresholds and denominators.
type Meta struct {
	// StartTime is the unix time of the first coarsening window.
	StartTime int64
	// StepSec is the coarsening window size (the paper's 10 s grid).
	StepSec int64
	// Nodes is the system size the run was produced with.
	Nodes int
	// Windows is the run's span in coarsening windows.
	Windows int
	// Cluster is the cluster identity the run was produced under ("" for
	// runs predating — or not using — the multi-cluster plane).
	Cluster string
	// Site is the floor/plant preset name the cluster instantiates
	// ("" = summit). See topology.Preset.
	Site string
}

// SpanSec is the covered span in seconds.
func (m Meta) SpanSec() int64 { return int64(m.Windows) * m.StepSec }

// JobRecord is one observed job's summary row — the neutral form both
// planes serve (the archive's job-records dataset carries exactly these
// columns). Class and Domain are the raw identifiers; consumers needing
// the typed views convert via units/workload.
type JobRecord struct {
	AllocationID  int64
	Class         int
	Domain        int
	Nodes         int
	BeginTime     int64
	EndTime       int64
	MaxPowerW     float64
	MeanPowerW    float64
	EnergyJ       float64
	MeanCPUPowerW float64
	MaxCPUPowerW  float64
	MeanGPUPowerW float64
	MaxGPUPowerW  float64
}

// Allocation is one row of the scheduler's allocation log (the paper's
// Dataset C): every job the run scheduled, those set to start after the
// span included. Class and Domain are the raw identifiers, as in JobRecord.
type Allocation struct {
	AllocationID int64
	User         string
	Project      string
	Domain       int
	Class        int
	Nodes        int
	SubmitTime   int64
	BeginTime    int64
	EndTime      int64
}

// JobWindow is one job's Σ node input power over one coarsening window in
// which at least one of its nodes reported (the paper's Datasets 3/4).
type JobWindow struct {
	AllocationID int64
	T            int64
	PowerW       float64
}

// GPUSample is one GPU of Figure 17's exemplar job at one of the windows
// that figure reads.
type GPUSample struct {
	T            int64
	AllocationID int64
	Node         int
	Slot         int
	PowerW       float64
	TempC        float64
}

// RunSource is the single data plane behind every analysis: cluster,
// facility, thermal and per-MSB meter series on the coarsening grid, each
// reached by name, plus the run's logs.
//
// Implementations must be safe for concurrent use: queryd runs analyses
// from concurrent requests over one source.
type RunSource interface {
	// Meta returns the run's dimensions.
	Meta() (Meta, error)
	// Series returns the named series over the full run on the coarsening
	// grid. Unknown names return ErrUnknownSeries.
	Series(name string) (*tsagg.Series, error)
	// JobRecords returns one row per observed job.
	JobRecords() ([]JobRecord, error)
	// Failures returns the run's failure log.
	Failures() ([]failures.Event, error)
	// Allocations returns the scheduler's allocation log, in start order.
	Allocations() ([]Allocation, error)
	// JobPower returns every job's observed windows, job by job in
	// allocation order, each job's windows in time order.
	JobPower() ([]JobWindow, error)
	// ExemplarGPUs returns Figure 17's frames of its exemplar job: window
	// by window, each the job's nodes in allocation order, each node's GPUs
	// by slot. Empty when the run had no job to pick.
	ExemplarGPUs() ([]GPUSample, error)
}
