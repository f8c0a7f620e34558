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
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tsagg"
	"repro/internal/units"
)

// RunData is one simulated span: its source, which serves the run under
// the archive's names (the in-memory equivalent of the paper's
// pre-processed Datasets 0–13).
type RunData struct {
	src *source.MemorySource
}

// Source returns the run's source, the live data plane: WriteDatasets
// archives what it serves, so analyses written against source.RunSource
// run unchanged over live and archived data, and the parity test holds the
// two planes bit-identical. Every call returns the same source, complete
// once the collector's SetFailures has run; treat it as immutable then.
func (d *RunData) Source() *source.MemorySource { return d.src }

// windowSeries names the cluster, thermal and facility series (Datasets
// 1–2, 8–9 and B/12) the collector fills every window, in the order Observe
// lists their values.
var windowSeries = [...]string{
	source.SeriesClusterPower, source.SeriesClusterTruePower, source.SeriesCPUPower, source.SeriesGPUPower,
	source.SeriesGPUTempMean, source.SeriesGPUTempMax, source.SeriesCPUTempMean, source.SeriesCPUTempMax,
	source.SeriesPUE, source.SeriesSupplyC, source.SeriesReturnC, source.SeriesTowerTons,
	source.SeriesChillerTons, source.SeriesTowerCount, source.SeriesChillerCount, source.SeriesWetBulbC,
}

// Collector fills a run's source from a simulation. Use NewCollector, pass
// it to Sim.Run as an observer, then call SetFailures and Data.
type Collector struct {
	data   *RunData
	allocs []scheduler.Allocation // the sim's, indexed as Snapshot.AllocIdx
	// The source's series, held here for the per-window pass: those of
	// windowSeries in its order, the GPU temperature-band counts (band
	// edges TempBandEdges: the §2 dashboard histogram), and per MSB the
	// meter reading and the sensor summation under it (Dataset 13).
	series          [len(windowSeries)]*tsagg.Series
	bands           [NumTempBands]*tsagg.Series
	meters, msbSums []*tsagg.Series
	// msbOf maps dense NodeID to MSB index, precomputed from the sim's
	// floor so the per-window node pass does no modular arithmetic and —
	// more importantly — follows the run's actual site geometry rather
	// than assuming Summit cabinets.
	msbOf []int32
	// jobs accumulates each allocation's record and windows (Datasets
	// 3–7), indexed by allocation index. Per-window scratch is reused
	// across Observe calls: Observe sits on the simulation hot path.
	jobs       []jobAcc
	jobTouched []int // allocation indices active this window
	msbSum     []float64
	// exemplar is Figure 17's job (nil: none), and frames the times of the
	// windows of it still to capture, ascending.
	exemplar *scheduler.Allocation
	frames   []int64
}

// jobAcc is one job's running summary over the windows of the run it
// keeps: from its start, clipped to the run, to its end, clipped likewise
// and rounded up to a whole window.
type jobAcc struct {
	start, end int64
	// sum is the job's Σ input power per window, cpuMean … gpuMax its
	// per-window across-node CPU and GPU component statistics (W, both
	// sockets or all six GPUs combined), energy Σ sum·step.
	sum, cpuMean, cpuMax, gpuMean, gpuMax stats.Moments
	energy                                float64
	windows                               []source.JobWindow
	// win collapses the job's node rows of the current window.
	win jobWindowAcc
}

// jobWindowAcc collapses one job's node rows for a single window.
type jobWindowAcc struct {
	sum            float64
	cpuSum, cpuMax float64
	gpuSum, gpuMax float64
	nodeCount      float64
}

// NewCollector creates the source of the run described by cfg and the sim's
// allocations, every series under its source name.
func NewCollector(s *sim.Sim, cfg sim.Config) *Collector {
	steps := int(cfg.DurationSec / cfg.StepSec) // whole windows: cfg is validated
	allocs := s.Allocations()
	src := &source.MemorySource{
		RunMeta: source.Meta{
			StartTime: cfg.StartTime,
			StepSec:   cfg.StepSec,
			Nodes:     cfg.Nodes,
			Windows:   steps,
			Cluster:   cfg.Cluster,
			Site:      cfg.Site,
		},
		SeriesByName: map[string]*tsagg.Series{},
		Allocs:       make([]source.Allocation, len(allocs)),
	}
	c := &Collector{data: &RunData{src: src}, allocs: allocs, jobs: make([]jobAcc, len(allocs))}
	mk := func(name string) *tsagg.Series {
		series := tsagg.NewSeries(cfg.StartTime, cfg.StepSec, steps)
		src.SeriesByName[name] = series
		return series
	}
	for k, name := range windowSeries {
		c.series[k] = mk(name)
	}
	for b := range c.bands {
		c.bands[b] = mk(source.GPUBandSeries(b))
	}
	msbs := s.Floor().MSBs()
	c.msbSum = make([]float64, msbs)
	for m := 0; m < msbs; m++ {
		c.meters = append(c.meters, mk(source.MeterSeriesName(m)))
		c.msbSums = append(c.msbSums, mk(source.MSBSumSeriesName(m)))
	}
	runEnd := cfg.StartTime + cfg.DurationSec
	for i := range allocs {
		a := &allocs[i]
		src.Allocs[i] = source.Allocation{
			AllocationID: a.Job.ID,
			User:         a.Job.User,
			Project:      a.Job.Project,
			Domain:       int(a.Job.Domain),
			Class:        int(a.Job.Class),
			Nodes:        a.Job.Nodes,
			SubmitTime:   a.Job.SubmitTime,
			BeginTime:    a.StartTime,
			EndTime:      a.EndTime,
		}
		start := max(a.StartTime, cfg.StartTime)
		n := max((min(a.EndTime, runEnd)-start+cfg.StepSec-1)/cfg.StepSec, 0)
		c.jobs[i].start, c.jobs[i].end = start, start+n*cfg.StepSec
	}
	c.msbOf = make([]int32, cfg.Nodes)
	for i := range c.msbOf {
		c.msbOf[i] = int32(s.Floor().MSBOf(topology.NodeID(i)))
	}
	if i := PickExemplarAllocation(allocs, cfg.StartTime, runEnd); i >= 0 {
		c.exemplar, c.frames = &allocs[i], exemplarFrames(&allocs[i], cfg)
	}
	return c
}

// Observe implements sim.Observer.
func (c *Collector) Observe(snap *sim.Snapshot) {
	t := snap.T
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
	// A window with nothing observed stores NaN, the series' "missing".
	if observed == 0 {
		cpuSum, gpuSum = math.NaN(), math.NaN()
	}
	if gpuTempN > 0 {
		gpuTempMean /= gpuTempN
	} else {
		gpuTempMean, gpuTempMax = math.NaN(), math.NaN()
	}
	if cpuTempN > 0 {
		cpuTempMean /= cpuTempN
	} else {
		cpuTempMean, cpuTempMax = math.NaN(), math.NaN()
	}
	vals := [len(windowSeries)]float64{
		float64(snap.ClusterSensorPower), float64(snap.ClusterTruePower), cpuSum, gpuSum,
		gpuTempMean, gpuTempMax, cpuTempMean, cpuTempMax,
		snap.PUE, float64(snap.SupplyC), float64(snap.ReturnC), float64(snap.TowerTons),
		float64(snap.ChillerTons), float64(snap.ActiveTowers), float64(snap.ActiveChillers), snap.WetBulbC,
	}
	for k, s := range c.series {
		s.Set(t, vals[k])
	}
	for b, s := range c.bands {
		s.Set(t, bands[b])
	}
	for m, s := range c.meters {
		s.Set(t, float64(snap.MeterPower[m]))
	}
	// Per-MSB sensor summation and job-aware collapse in one node pass,
	// on reused scratch.
	msbSum := c.msbSum
	for m := range msbSum {
		msbSum[m] = 0
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
		w := &c.jobs[aIdx].win
		if w.nodeCount == 0 {
			*w = jobWindowAcc{cpuMax: math.Inf(-1), gpuMax: math.Inf(-1)}
			c.jobTouched = append(c.jobTouched, aIdx)
		}
		w.sum += nodePower
		w.cpuSum += snap.CPUPower[i]
		if snap.CPUPower[i] > w.cpuMax {
			w.cpuMax = snap.CPUPower[i]
		}
		w.gpuSum += snap.GPUPower[i]
		if snap.GPUPower[i] > w.gpuMax {
			w.gpuMax = snap.GPUPower[i]
		}
		w.nodeCount++
	}
	for m, s := range c.msbSums {
		s.Set(t, msbSum[m])
	}
	for _, aIdx := range c.jobTouched {
		c.jobs[aIdx].observe(t, c.data.src.RunMeta.StepSec, c.allocs[aIdx].Job.ID)
	}
	if len(c.frames) > 0 && t == c.frames[0] {
		c.frames = c.frames[1:]
		a := c.exemplar
		src := c.data.src
		for _, id := range a.NodeIDs {
			for g := 0; g < units.GPUsPerNode; g++ {
				src.Exemplar = append(src.Exemplar, source.GPUSample{T: t, AllocationID: a.Job.ID, Node: int(id), Slot: g,
					PowerW: snap.GPUPowerEach[id][g], TempC: snap.GPUCoreTemp[id][g]})
			}
		}
	}
}

// observe folds the job's collapsed window at t into its summary and clears
// it. A window outside the job's kept span counts nowhere, and a NaN
// statistic is missing from its own summary only.
func (j *jobAcc) observe(t, step, id int64) {
	w := j.win
	j.win = jobWindowAcc{}
	if t < j.start || t >= j.end {
		return
	}
	add := func(m *stats.Moments, v float64) {
		if !math.IsNaN(v) {
			m.Add(v)
		}
	}
	if !math.IsNaN(w.sum) {
		j.sum.Add(w.sum)
		j.energy += w.sum * float64(step)
		// The window is stamped on the job's grid, which starts at its
		// clipped start.
		j.windows = append(j.windows, source.JobWindow{AllocationID: id, T: j.start + (t-j.start)/step*step, PowerW: w.sum})
	}
	add(&j.cpuMean, w.cpuSum/w.nodeCount)
	add(&j.cpuMax, w.cpuMax)
	add(&j.gpuMean, w.gpuSum/w.nodeCount)
	add(&j.gpuMax, w.gpuMax)
}

// SetFailures attaches the run's failure log after Run completes and
// completes the run's source: the record of every job with a kept window
// (Datasets 5–7) and the jobs' windows, both in allocation order.
func (c *Collector) SetFailures(evs []failures.Event) {
	d := c.data
	d.src.Events, d.src.Jobs, d.src.JobWindows = evs, nil, nil
	for i := range c.jobs {
		j := &c.jobs[i]
		if j.sum.N == 0 {
			continue
		}
		a := &c.allocs[i]
		d.src.Jobs = append(d.src.Jobs, source.JobRecord{
			AllocationID:  a.Job.ID,
			Class:         int(a.Job.Class),
			Domain:        int(a.Job.Domain),
			Nodes:         a.Job.Nodes,
			BeginTime:     a.StartTime,
			EndTime:       a.EndTime,
			MaxPowerW:     j.sum.Max,
			MeanPowerW:    j.sum.Mean(),
			EnergyJ:       j.energy,
			MeanCPUPowerW: j.cpuMean.Mean(),
			MaxCPUPowerW:  j.cpuMax.Max,
			MeanGPUPowerW: j.gpuMean.Mean(),
			MaxGPUPowerW:  j.gpuMax.Max,
		})
		d.src.JobWindows = append(d.src.JobWindows, j.windows...)
	}
}

// Data returns the run: its source is complete once SetFailures has run.
func (c *Collector) Data() *RunData { return c.data }

// CollectRun is the one run-and-collect sequence: build the sim from cfg,
// run it with the standard collector and the extra observers, and return the
// run data with the sim result. However it returns — the config refused, the
// run failed, an observer's Close failed — every extra observer that holds
// files (an io.Closer, such as the node-dataset writer and its flush in
// flight) has been closed once, and every error is reported.
func CollectRun(cfg sim.Config, extra ...sim.Observer) (*RunData, *sim.Result, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, nil, errors.Join(err, closeObservers(extra))
	}
	col := NewCollector(s, s.Config())
	res, err := s.Run(append([]sim.Observer{col}, extra...)...)
	if err = errors.Join(err, closeObservers(extra)); err != nil {
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
