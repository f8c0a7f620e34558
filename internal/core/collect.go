// Package core implements the paper's contribution: the analysis pipeline
// that turns raw telemetry, job logs, facility data and failure logs into
// the paper's tables and figures. Each experiment has a dedicated entry
// point returning plain data structures that the renderers and benchmarks
// consume.
package core

import (
	"errors"
	"io"
	"math"

	"repro/internal/failures"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/topology"
	"repro/internal/tsagg"
	"repro/internal/units"
)

// JobSeries is the job-aware collapse of per-node telemetry for one
// allocation (the paper's Datasets 3–6): cluster-of-the-job power and
// component series on the coarsening grid.
type JobSeries struct {
	AllocIdx int
	// SumPower is Σ over the job's nodes of sensor input power (W).
	SumPower *tsagg.Series
	// MeanCPUPower / MaxCPUPower are across-node stats of per-node CPU
	// component power (W, both sockets combined); GPU likewise.
	MeanCPUPower *tsagg.Series
	MaxCPUPower  *tsagg.Series
	MeanGPUPower *tsagg.Series
	MaxGPUPower  *tsagg.Series
}

// RunData is everything the analyses need from one simulated span: the
// in-memory equivalent of the paper's pre-processed Datasets 0–13.
type RunData struct {
	StartTime int64
	StepSec   int64
	Nodes     int
	// Cluster and Site carry the run's cluster identity ("" = the
	// anonymous single-cluster run): they flow into the run-meta manifest,
	// the source layer's Meta, and every analysis output that names its
	// origin.
	Cluster string
	Site    string

	Allocations []scheduler.Allocation
	Failures    []failures.Event

	// Cluster-level series (Datasets 1–2).
	ClusterPower     *tsagg.Series // Σ sensor input power
	ClusterTruePower *tsagg.Series
	ClusterCPUPower  *tsagg.Series
	ClusterGPUPower  *tsagg.Series

	// Facility series (Datasets B/12).
	PUE         *tsagg.Series
	SupplyC     *tsagg.Series
	ReturnC     *tsagg.Series
	TowerTons   *tsagg.Series
	ChillerTons *tsagg.Series
	// TowerCount / ChillerCount are the staged equipment counts — the
	// "stages and de-stages cooling capacity" signal of the paper's
	// future-work discussion.
	TowerCount   *tsagg.Series
	ChillerCount *tsagg.Series
	WetBulbC     *tsagg.Series

	// Thermal cluster series (Datasets 8–9).
	GPUTempMean *tsagg.Series
	GPUTempMax  *tsagg.Series
	CPUTempMean *tsagg.Series
	CPUTempMax  *tsagg.Series
	// GPUTempBands counts GPUs per core-temperature band per window —
	// the histogram-based component summary the facility engineers watch
	// in near real time (paper §2). Band edges are TempBandEdges.
	GPUTempBands [NumTempBands]*tsagg.Series

	// Meter validation series (Dataset 13): per MSB, the meter reading
	// and the per-node sensor summation under that MSB.
	MeterPower   []*tsagg.Series
	MSBSensorSum []*tsagg.Series

	// Job-aware series (Datasets 3–6), parallel to Allocations.
	Jobs []JobSeries

	// Exemplar is Figure 17's per-GPU detail: the frames of the exemplar
	// job (PickExemplarAllocation) at the windows the figure reads. Empty
	// when the run has no job to pick.
	Exemplar []source.GPUSample
}

// Collector accumulates RunData from a simulation. Use NewCollector, pass
// it to Sim.Run as an observer, then call Data.
type Collector struct {
	data *RunData
	// msbOf maps dense NodeID to MSB index, precomputed from the sim's
	// floor so the per-window node pass does no modular arithmetic and —
	// more importantly — follows the run's actual site geometry rather
	// than assuming Summit cabinets.
	msbOf []int32
	// Per-window scratch reused across Observe calls: Observe sits on the
	// simulation hot path, and a fresh map plus accumulator allocations
	// every window were a measurable share of run cost.
	jobAcc     []jobWindowAcc // indexed by allocation index
	jobTouched []int          // allocation indices active this window
	msbSum     []float64
	// exemplar is Figure 17's job (nil: none), and frames the times of the
	// windows of it still to capture, ascending.
	exemplar *scheduler.Allocation
	frames   []int64
}

// jobWindowAcc collapses one job's node rows for a single window.
type jobWindowAcc struct {
	sum            float64
	cpuSum, cpuMax float64
	gpuSum, gpuMax float64
	nodeCount      float64
	touched        bool
}

// NewCollector sizes the collector for the run described by cfg and the
// sim's allocations.
func NewCollector(s *sim.Sim, cfg sim.Config) *Collector {
	steps := int(cfg.DurationSec / cfg.StepSec)
	mk := func() *tsagg.Series {
		return tsagg.NewSeries(cfg.StartTime, cfg.StepSec, steps)
	}
	allocs := s.Allocations()
	data := &RunData{
		StartTime:        cfg.StartTime,
		StepSec:          cfg.StepSec,
		Nodes:            cfg.Nodes,
		Cluster:          cfg.Cluster,
		Site:             cfg.Site,
		Allocations:      allocs,
		ClusterPower:     mk(),
		ClusterTruePower: mk(),
		ClusterCPUPower:  mk(),
		ClusterGPUPower:  mk(),
		PUE:              mk(),
		SupplyC:          mk(),
		ReturnC:          mk(),
		TowerTons:        mk(),
		ChillerTons:      mk(),
		TowerCount:       mk(),
		ChillerCount:     mk(),
		WetBulbC:         mk(),
		GPUTempMean:      mk(),
		GPUTempMax:       mk(),
		CPUTempMean:      mk(),
		CPUTempMax:       mk(),
		Jobs:             make([]JobSeries, len(allocs)),
	}
	for b := range data.GPUTempBands {
		data.GPUTempBands[b] = mk()
	}
	for i := range allocs {
		a := &allocs[i]
		// Clip the job series to the run window.
		start := a.StartTime
		if start < cfg.StartTime {
			start = cfg.StartTime
		}
		end := a.EndTime
		if end > cfg.StartTime+cfg.DurationSec {
			end = cfg.StartTime + cfg.DurationSec
		}
		n := int((end - start + cfg.StepSec - 1) / cfg.StepSec)
		if n < 0 {
			n = 0
		}
		mkJob := func() *tsagg.Series { return tsagg.NewSeries(start, cfg.StepSec, n) }
		data.Jobs[i] = JobSeries{
			AllocIdx:     i,
			SumPower:     mkJob(),
			MeanCPUPower: mkJob(),
			MaxCPUPower:  mkJob(),
			MeanGPUPower: mkJob(),
			MaxGPUPower:  mkJob(),
		}
	}
	msbOf := make([]int32, cfg.Nodes)
	for i := range msbOf {
		msbOf[i] = int32(s.Floor().MSBOf(topology.NodeID(i)))
	}
	c := &Collector{data: data, msbOf: msbOf}
	if i := PickExemplarAllocation(allocs, cfg.StartTime, cfg.StartTime+cfg.DurationSec); i >= 0 {
		c.exemplar, c.frames = &allocs[i], exemplarFrames(&allocs[i], cfg)
	}
	return c
}

// Observe implements sim.Observer.
func (c *Collector) Observe(snap *sim.Snapshot) {
	d := c.data
	t := snap.T
	// Cluster roll-ups.
	d.ClusterPower.Set(t, float64(snap.ClusterSensorPower))
	d.ClusterTruePower.Set(t, float64(snap.ClusterTruePower))
	var cpuSum, gpuSum float64
	var gpuTempMean, cpuTempMean float64
	var gpuTempN, cpuTempN float64
	gpuTempMax, cpuTempMax := math.Inf(-1), math.Inf(-1)
	var bands [NumTempBands]float64
	observed := 0
	for i := range snap.CPUPower {
		// Lost node-windows (telemetry dropout) carry Count 0 and NaN
		// values; they are simply absent from the telemetry view.
		if snap.NodeStat[i].Count == 0 {
			continue
		}
		observed++
		cpuSum += snap.CPUPower[i]
		gpuSum += snap.GPUPower[i]
		for g := 0; g < units.GPUsPerNode; g++ {
			v := snap.GPUCoreTemp[i][g]
			if math.IsNaN(v) {
				continue
			}
			gpuTempMean += v
			gpuTempN++
			if v > gpuTempMax {
				gpuTempMax = v
			}
			bands[TempBandOf(v)]++
		}
		for cc := 0; cc < units.CPUsPerNode; cc++ {
			v := snap.CPUTemp[i][cc]
			if math.IsNaN(v) {
				continue
			}
			cpuTempMean += v
			cpuTempN++
			if v > cpuTempMax {
				cpuTempMax = v
			}
		}
	}
	if observed > 0 {
		d.ClusterCPUPower.Set(t, cpuSum)
		d.ClusterGPUPower.Set(t, gpuSum)
	}
	if gpuTempN > 0 {
		d.GPUTempMean.Set(t, gpuTempMean/gpuTempN)
		d.GPUTempMax.Set(t, gpuTempMax)
	}
	if cpuTempN > 0 {
		d.CPUTempMean.Set(t, cpuTempMean/cpuTempN)
		d.CPUTempMax.Set(t, cpuTempMax)
	}
	for b := range bands {
		d.GPUTempBands[b].Set(t, bands[b])
	}
	// Facility.
	d.PUE.Set(t, snap.PUE)
	d.SupplyC.Set(t, float64(snap.SupplyC))
	d.ReturnC.Set(t, float64(snap.ReturnC))
	d.TowerTons.Set(t, float64(snap.TowerTons))
	d.ChillerTons.Set(t, float64(snap.ChillerTons))
	d.TowerCount.Set(t, float64(snap.ActiveTowers))
	d.ChillerCount.Set(t, float64(snap.ActiveChillers))
	d.WetBulbC.Set(t, snap.WetBulbC)
	// Meters (lazily sized on first window).
	if d.MeterPower == nil {
		for range snap.MeterPower {
			d.MeterPower = append(d.MeterPower, likeSeries(d.ClusterPower))
			d.MSBSensorSum = append(d.MSBSensorSum, likeSeries(d.ClusterPower))
		}
	}
	for m := range snap.MeterPower {
		d.MeterPower[m].Set(t, float64(snap.MeterPower[m]))
	}
	// Per-MSB sensor summation and job-aware collapse in one node pass,
	// on reused scratch.
	if c.msbSum == nil {
		c.msbSum = make([]float64, len(snap.MeterPower))
		c.jobAcc = make([]jobWindowAcc, len(d.Jobs))
	}
	msbSum := c.msbSum
	for m := range msbSum {
		msbSum[m] = 0
	}
	for _, aIdx := range c.jobTouched {
		c.jobAcc[aIdx] = jobWindowAcc{}
	}
	c.jobTouched = c.jobTouched[:0]
	for i := range snap.NodeStat {
		if snap.NodeStat[i].Count == 0 {
			continue // telemetry lost for this node-window
		}
		nodePower := snap.NodeStat[i].Mean
		msbSum[c.msbOf[i]] += nodePower
		aIdx := snap.AllocIdx[i]
		if aIdx < 0 {
			continue
		}
		a := &c.jobAcc[aIdx]
		if !a.touched {
			*a = jobWindowAcc{touched: true, cpuMax: math.Inf(-1), gpuMax: math.Inf(-1)}
			c.jobTouched = append(c.jobTouched, aIdx)
		}
		a.sum += nodePower
		a.cpuSum += snap.CPUPower[i]
		if snap.CPUPower[i] > a.cpuMax {
			a.cpuMax = snap.CPUPower[i]
		}
		a.gpuSum += snap.GPUPower[i]
		if snap.GPUPower[i] > a.gpuMax {
			a.gpuMax = snap.GPUPower[i]
		}
		a.nodeCount++
	}
	for m := range msbSum {
		d.MSBSensorSum[m].Set(t, msbSum[m])
	}
	for _, aIdx := range c.jobTouched {
		a := &c.jobAcc[aIdx]
		js := &d.Jobs[aIdx]
		js.SumPower.Set(t, a.sum)
		js.MeanCPUPower.Set(t, a.cpuSum/a.nodeCount)
		js.MaxCPUPower.Set(t, a.cpuMax)
		js.MeanGPUPower.Set(t, a.gpuSum/a.nodeCount)
		js.MaxGPUPower.Set(t, a.gpuMax)
	}
	if len(c.frames) > 0 && t == c.frames[0] {
		c.frames = c.frames[1:]
		a := c.exemplar
		for _, id := range a.NodeIDs {
			for g := 0; g < units.GPUsPerNode; g++ {
				d.Exemplar = append(d.Exemplar, source.GPUSample{T: t, AllocationID: a.Job.ID, Node: int(id), Slot: g,
					PowerW: snap.GPUPowerEach[id][g], TempC: snap.GPUCoreTemp[id][g]})
			}
		}
	}
}

// likeSeries clones the shape of s with fresh NaN storage.
func likeSeries(s *tsagg.Series) *tsagg.Series {
	return tsagg.NewSeries(s.Start, s.Step, s.Len())
}

// SetFailures attaches the run's failure log after Run completes.
func (c *Collector) SetFailures(evs []failures.Event) { c.data.Failures = evs }

// Data returns the accumulated run data.
func (c *Collector) Data() *RunData { return c.data }

// Attach builds one extra observer for a run once its sim exists (the
// node-dataset writer sizes its floor from the sim's configuration).
type Attach func(s *sim.Sim) (sim.Observer, error)

// CollectRun is the one run-and-collect sequence: build the sim from cfg,
// attach the standard collector plus the extra observers, run, and return
// the run data with the sim result. An attach error aborts before the run
// starts. However the run ends, every extra observer that holds files (an
// io.Closer, such as the node-dataset writer and its flush in flight) is
// closed before CollectRun returns, and every error is reported.
func CollectRun(cfg sim.Config, attach ...Attach) (*RunData, *sim.Result, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	col := NewCollector(s, s.Config())
	observers := []sim.Observer{col}
	for _, a := range attach {
		o, err := a(s)
		if err != nil {
			return nil, nil, errors.Join(err, closeObservers(observers))
		}
		observers = append(observers, o)
	}
	res, err := s.Run(observers...)
	if err = errors.Join(err, closeObservers(observers)); err != nil {
		return nil, nil, err
	}
	col.SetFailures(res.Failures)
	return col.Data(), res, nil
}

// closeObservers closes every observer that is an io.Closer and joins their
// errors; one failing does not keep the rest open.
func closeObservers(observers []sim.Observer) error {
	var err error
	for _, o := range observers {
		if c, ok := o.(io.Closer); ok {
			err = errors.Join(err, c.Close())
		}
	}
	return err
}
