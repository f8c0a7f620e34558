package core

import (
	"repro/internal/source"
	"repro/internal/tsagg"
)

// Source adapts collected run data into the live data plane: a MemorySource
// serving the canonical series names, job rows and failure log. It is the
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
	}
}
