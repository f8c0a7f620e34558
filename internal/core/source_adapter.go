package core

import (
	"math"

	"repro/internal/source"
	"repro/internal/tsagg"
)

// Source adapts collected run data into the live data plane: a MemorySource
// serving the canonical series names and the run's logs. It is the
// only RunData → layout mapping — WriteDatasets archives what it serves — so
// analyses written against source.RunSource run unchanged over live and
// archived data, and the parity test holds the two planes bit-identical.
//
// The adapter shares the underlying series storage; treat the run data as
// immutable once adapted.
func (d *RunData) Source() *source.MemorySource {
	byName := map[string]*tsagg.Series{}
	put := func(name string, s *tsagg.Series) {
		if s != nil {
			byName[name] = s
		}
	}
	put(source.SeriesClusterPower, d.ClusterPower)
	put(source.SeriesClusterTruePower, d.ClusterTruePower)
	put(source.SeriesCPUPower, d.ClusterCPUPower)
	put(source.SeriesGPUPower, d.ClusterGPUPower)
	put(source.SeriesPUE, d.PUE)
	put(source.SeriesSupplyC, d.SupplyC)
	put(source.SeriesReturnC, d.ReturnC)
	put(source.SeriesTowerTons, d.TowerTons)
	put(source.SeriesChillerTons, d.ChillerTons)
	put(source.SeriesTowerCount, d.TowerCount)
	put(source.SeriesChillerCount, d.ChillerCount)
	put(source.SeriesWetBulbC, d.WetBulbC)
	put(source.SeriesGPUTempMean, d.GPUTempMean)
	put(source.SeriesGPUTempMax, d.GPUTempMax)
	put(source.SeriesCPUTempMean, d.CPUTempMean)
	put(source.SeriesCPUTempMax, d.CPUTempMax)
	for b, s := range d.GPUTempBands {
		put(source.GPUBandSeries(b), s)
	}
	for m := range d.MeterPower {
		put(source.MeterSeriesName(m), d.MeterPower[m])
	}
	for m := range d.MSBSensorSum {
		put(source.MSBSumSeriesName(m), d.MSBSensorSum[m])
	}
	windows := 0
	if d.ClusterPower != nil {
		windows = d.ClusterPower.Len()
	}
	return &source.MemorySource{
		RunMeta: source.Meta{
			StartTime: d.StartTime,
			StepSec:   d.StepSec,
			Nodes:     d.Nodes,
			Windows:   windows,
			Cluster:   d.Cluster,
			Site:      d.Site,
		},
		SeriesByName: byName,
		Jobs:         BuildJobRecords(d),
		Events:       d.Failures,
		Allocs:       allocationLog(d),
		JobWindows:   jobWindows(d),
		Exemplar:     d.Exemplar,
	}
}

// allocationLog is the scheduler's log of the run, allocation by allocation.
func allocationLog(d *RunData) []source.Allocation {
	out := make([]source.Allocation, len(d.Allocations))
	for i := range d.Allocations {
		a := &d.Allocations[i]
		out[i] = source.Allocation{
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
	}
	return out
}

// jobWindows lists every job's observed Σ input power windows, job by job.
func jobWindows(d *RunData) []source.JobWindow {
	var out []source.JobWindow
	for i := range d.Jobs {
		js := &d.Jobs[i]
		id := d.Allocations[js.AllocIdx].Job.ID
		for w, v := range js.SumPower.Vals {
			if !math.IsNaN(v) {
				out = append(out, source.JobWindow{AllocationID: id, T: js.SumPower.TimeAt(w), PowerW: v})
			}
		}
	}
	return out
}
