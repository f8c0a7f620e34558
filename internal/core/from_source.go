package core

// This file holds the source.RunSource entry points of the analyses that
// have no file of their own (the paper's figures and tables sit beside
// their report types). Every entry point fetches exactly the series and
// records it needs, so identical results come back from a live run
// (RunData.Source) and from an archive (source.OpenArchive).

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/dsp"
	"repro/internal/source"
	"repro/internal/tsagg"
)

// seriesOf reads the named series of src, in order.
func seriesOf(src source.RunSource, names ...string) ([]*tsagg.Series, error) {
	out := make([]*tsagg.Series, len(names))
	for i, name := range names {
		s, err := src.Series(name)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// EdgesFromSource detects cluster power edges at the per-node threshold of
// the run's system size (§4.2).
func EdgesFromSource(src source.RunSource) ([]Edge, error) {
	meta, err := src.Meta()
	if err != nil {
		return nil, err
	}
	power, err := src.Series(source.SeriesClusterPower)
	if err != nil {
		return nil, err
	}
	return DetectEdges(power, meta.Nodes), nil
}

// SwingComponent is one spectral component of the differenced cluster
// power series.
type SwingComponent struct {
	FreqHz     float64
	PeriodSec  float64
	AmplitudeW float64
}

// SwingReport characterizes cluster power dynamics in the frequency
// domain (§4.2): steepest single-window swings, the dominant oscillation,
// and the top spectral components of the differenced series.
type SwingReport struct {
	MaxRiseW float64
	MaxFallW float64
	// Dominant oscillation of the differenced series; HasDominant is false
	// when the series is too short for an FFT.
	DominantFreqHz float64
	DominantAmpW   float64
	HasDominant    bool
	// Top holds the strongest spectral components, strongest first.
	Top []SwingComponent
}

// swingTopN is how many spectral components SwingsFromSource reports.
const swingTopN = 5

// SwingsFromSource computes the FFT swing characterization of the cluster
// power series.
func SwingsFromSource(src source.RunSource) (*SwingReport, error) {
	meta, err := src.Meta()
	if err != nil {
		return nil, err
	}
	power, err := src.Series(source.SeriesClusterPower)
	if err != nil {
		return nil, err
	}
	rep := &SwingReport{}
	rep.MaxRiseW, rep.MaxFallW = steepestSwings(power)
	vals := power.Clean()
	rate := 1 / float64(meta.StepSec)
	if f, amp, ok := dsp.DominantSwing(vals, rate); ok {
		rep.DominantFreqHz, rep.DominantAmpW, rep.HasDominant = f, amp, true
	}
	if len(vals) < 3 { // the differenced series needs two samples for a spectrum
		return rep, nil
	}
	spec, err := dsp.NewSpectrum(dsp.Diff(vals), rate)
	if err != nil {
		return nil, err
	}
	comps := make([]SwingComponent, len(spec.Amps))
	for i, a := range spec.Amps {
		period := math.Inf(1)
		if spec.Freqs[i] > 0 {
			period = 1 / spec.Freqs[i]
		}
		comps[i] = SwingComponent{FreqHz: spec.Freqs[i], PeriodSec: period, AmplitudeW: a}
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].AmplitudeW > comps[j].AmplitudeW })
	if len(comps) > swingTopN {
		comps = comps[:swingTopN]
	}
	rep.Top = comps
	return rep, nil
}

// ThermalBandsFromSource reduces the per-window GPU temperature band counts
// to the §2 dashboard view.
func ThermalBandsFromSource(src source.RunSource) ([]BandSummary, error) {
	meta, err := src.Meta()
	if err != nil {
		return nil, err
	}
	var bands [NumTempBands]*tsagg.Series
	for b := 0; b < NumTempBands; b++ {
		s, err := src.Series(source.GPUBandSeries(b))
		if err != nil {
			return nil, fmt.Errorf("core: band %d: %w", b, err)
		}
		bands[b] = s
	}
	return thermalBandsFrom(bands, meta.Nodes)
}

// EarlyWarningFromSource evaluates the §6.1 precursor→outcome pairs.
// windowSec <= 0 uses the one-hour default.
func EarlyWarningFromSource(src source.RunSource, windowSec int64) ([]PrecursorStats, error) {
	meta, err := src.Meta()
	if err != nil {
		return nil, err
	}
	evs, err := src.Failures()
	if err != nil {
		return nil, err
	}
	return earlyWarningPairs(evs, meta.Nodes, meta.SpanSec(), windowSec), nil
}

// SeriesSummary is the per-series roll-up of SummaryFromSource.
type SeriesSummary struct {
	Name string
	N    int64
	Min  float64
	Mean float64
	Max  float64
	Std  float64
}

// summaryOrder is the canonical presentation order of the cluster summary.
var summaryOrder = []string{
	source.SeriesClusterPower, source.SeriesCPUPower, source.SeriesGPUPower,
	source.SeriesPUE, source.SeriesSupplyC, source.SeriesReturnC,
	source.SeriesTowerTons, source.SeriesChillerTons,
	source.SeriesTowerCount, source.SeriesChillerCount,
	source.SeriesGPUTempMean, source.SeriesGPUTempMax,
	source.SeriesCPUTempMean, source.SeriesCPUTempMax,
}

// SummaryFromSource reduces the canonical cluster series to summary
// statistics, skipping series the source does not carry; any other read
// error (a damaged column) fails the summary rather than shortening it.
func SummaryFromSource(src source.RunSource) ([]SeriesSummary, error) {
	var out []SeriesSummary
	for _, name := range summaryOrder {
		s, err := src.Series(name)
		if errors.Is(err, source.ErrUnknownSeries) {
			continue
		}
		if err != nil {
			return nil, err
		}
		m := s.Stats()
		out = append(out, SeriesSummary{
			Name: name, N: m.N,
			Min: m.Min, Mean: m.Mean(), Max: m.Max, Std: m.Std(),
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: source carries none of the cluster series")
	}
	return out, nil
}
