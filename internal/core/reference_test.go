package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/failures"
	"repro/internal/stats"
	"repro/internal/tsagg"
	"repro/internal/units"
)

// The naive batch loops the §4.2 edge, §2 band and §6.1 early-warning
// analyses ran before they became online operators, kept verbatim as the
// oracles the operators are compared against bit for bit. Never edit
// them to follow the code: they are the behaviour the code must keep.
// The same text follows the imports of internal/core/reference_test.go
// and internal/stream/reference_test.go, since a test file cannot be
// imported across packages; stream's TestReferenceCopiesAgree keeps the
// two identical.

// refDetectEdges scans the finished series for threshold crossings and
// merges consecutive same-direction ones.
func refDetectEdges(s *tsagg.Series, threshold float64) []Edge {
	if s == nil || s.Len() < 2 || threshold <= 0 {
		return nil
	}
	var edges []Edge
	i := 1
	for i < s.Len() {
		prev, cur := s.Vals[i-1], s.Vals[i]
		if math.IsNaN(prev) || math.IsNaN(cur) {
			i++
			continue
		}
		d := cur - prev
		if math.Abs(d) < threshold {
			i++
			continue
		}
		rising := d > 0
		start := i - 1
		amp := d
		// Merge subsequent same-direction crossings.
		j := i + 1
		for j < s.Len() && !math.IsNaN(s.Vals[j]) {
			dj := s.Vals[j] - s.Vals[j-1]
			if math.Abs(dj) < threshold || (dj > 0) != rising {
				break
			}
			amp += dj
			j++
		}
		e := Edge{
			StartIdx:   start,
			EndIdx:     j - 1,
			T:          s.TimeAt(j - 1),
			Rising:     rising,
			AmplitudeW: amp,
		}
		e.DurationSec = refEdgeDuration(s, e)
		edges = append(edges, e)
		i = j
	}
	return edges
}

// refEdgeDuration follows the series past the edge, finds the extreme
// (peak for rising, trough for falling), and reports the time from the
// edge start until the value has come back 80 % of the way from that
// extreme toward the pre-edge level; -1 when the series ends first.
func refEdgeDuration(s *tsagg.Series, e Edge) int64 {
	base := s.Vals[e.StartIdx]
	extreme := s.Vals[e.EndIdx]
	for k := e.EndIdx; k < s.Len(); k++ {
		v := s.Vals[k]
		if math.IsNaN(v) {
			continue
		}
		if e.Rising && v > extreme {
			extreme = v
		}
		if !e.Rising && v < extreme {
			extreme = v
		}
		// Return threshold recomputed against the running extreme.
		ret := extreme - 0.8*(extreme-base)
		if (e.Rising && v <= ret) || (!e.Rising && v >= ret) {
			return s.TimeAt(k) - s.TimeAt(e.StartIdx)
		}
	}
	return -1
}

// refThermalBands reduces each band series' non-NaN values on its own.
func refThermalBands(bands [NumTempBands]*tsagg.Series, nodes int) ([]BandSummary, error) {
	if bands[0] == nil {
		return nil, fmt.Errorf("core: run data has no band series")
	}
	totalGPUs := float64(nodes * units.GPUsPerNode)
	out := make([]BandSummary, NumTempBands)
	for b := 0; b < NumTempBands; b++ {
		vals := bands[b].Clean()
		m := stats.Summarize(vals)
		out[b] = BandSummary{
			Band:     b,
			Label:    TempBandLabel(b),
			MeanGPUs: m.Mean(),
			MaxGPUs:  m.Max,
		}
		if totalGPUs > 0 {
			out[b].MeanShare = m.Mean() / totalGPUs
		}
	}
	return out, nil
}

// refEarlyWarning indexes each GPU's outcome times, sorts them, and
// binary-searches the first outcome at or after every precursor.
func refEarlyWarning(evs []failures.Event, precursor, outcome failures.Type,
	windowSec int64, gpuWindows float64) (*PrecursorStats, error) {
	if windowSec <= 0 {
		return nil, fmt.Errorf("core: non-positive window %d", windowSec)
	}
	if precursor == outcome {
		return nil, fmt.Errorf("core: precursor equals outcome")
	}
	// Index outcome events per GPU, time-sorted.
	type gpuKey struct {
		node int
		slot int
	}
	outcomes := map[gpuKey][]int64{}
	outcomeCount := 0
	var precursors []failures.Event
	for _, e := range evs {
		k := gpuKey{int(e.Node), int(e.Slot)}
		switch e.Type {
		case outcome:
			outcomes[k] = append(outcomes[k], e.Time)
			outcomeCount++
		case precursor:
			precursors = append(precursors, e)
		}
	}
	for k := range outcomes {
		sort.Slice(outcomes[k], func(a, b int) bool { return outcomes[k][a] < outcomes[k][b] })
	}
	st := &PrecursorStats{
		Precursor: precursor, Outcome: outcome,
		WindowSec: windowSec, Precursors: len(precursors),
	}
	if len(precursors) == 0 {
		return st, nil
	}
	var leads []int64
	for _, p := range precursors {
		k := gpuKey{int(p.Node), int(p.Slot)}
		times := outcomes[k]
		// First outcome at or after the precursor within the window.
		i := sort.Search(len(times), func(i int) bool { return times[i] >= p.Time })
		if i < len(times) && times[i]-p.Time <= windowSec {
			st.Followed++
			leads = append(leads, times[i]-p.Time)
		}
	}
	st.HitRate = float64(st.Followed) / float64(st.Precursors)
	if gpuWindows > 0 {
		st.BaseRate = float64(outcomeCount) / gpuWindows
		if st.BaseRate > 1 {
			st.BaseRate = 1
		}
	}
	if st.BaseRate > 0 {
		st.Lift = st.HitRate / st.BaseRate
	}
	if len(leads) > 0 {
		sort.Slice(leads, func(a, b int) bool { return leads[a] < leads[b] })
		st.MedianLeadSec = leads[len(leads)/2]
	}
	return st, nil
}

// refEarlyWarningPairs runs refEarlyWarning once per pair of the paper's.
func refEarlyWarningPairs(evs []failures.Event, nodes int, spanSec, windowSec int64) ([]PrecursorStats, error) {
	if windowSec <= 0 {
		windowSec = 3600
	}
	gpuWindows := float64(nodes*units.GPUsPerNode) * float64(spanSec) / float64(windowSec)
	pairs := [][2]failures.Type{
		{failures.MicrocontrollerWarning, failures.DriverErrorHandling},
		{failures.DoubleBitError, failures.PageRetirementEvent},
		{failures.PageRetirementEvent, failures.PageRetirementFailure},
	}
	var out []PrecursorStats
	for _, pr := range pairs {
		st, err := refEarlyWarning(evs, pr[0], pr[1], windowSec, gpuWindows)
		if err != nil {
			return nil, err
		}
		out = append(out, *st)
	}
	return out, nil
}
