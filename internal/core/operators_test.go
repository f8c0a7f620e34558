package core

import (
	"math"
	"testing"

	"repro/internal/failures"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/tsagg"
)

// bitsEq is bit-level float equality (NaN == NaN, +0 != -0).
func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// propertySeries draws a threshold-50 power series from the shapes that
// decide the edge rules: NaN runs, steps of exactly the threshold, ramps
// that turn round, noisy plateaus, and — last — an edge that never
// returns. Levels are whole watts, so a threshold step is exact.
func propertySeries(r *rng.Source) *tsagg.Series {
	const threshold = 50
	var vals []float64
	level := 1000.0
	for n := 10 + r.IntN(100); len(vals) < n; {
		switch r.IntN(6) {
		case 0: // a NaN run
			for k := 1 + r.IntN(4); k > 0; k-- {
				vals = append(vals, math.NaN())
			}
		case 1: // a step of exactly the threshold
			level += float64(threshold * (2*r.IntN(2) - 1))
			vals = append(vals, level)
		case 2: // a ramp that turns round: up then down, or the reverse
			dir := float64(2*r.IntN(2) - 1)
			for _, d := range []float64{dir, -dir} {
				for k := 1 + r.IntN(3); k > 0; k-- {
					level += d * float64(threshold+r.IntN(40))
					vals = append(vals, level)
				}
			}
		case 3: // one step each way, alternating
			for k := 2 + r.IntN(3); k > 0; k-- {
				level += float64(threshold) * float64(1-2*(k%2))
				vals = append(vals, level)
			}
		default: // a plateau with sub-threshold noise
			for k := 1 + r.IntN(4); k > 0; k-- {
				vals = append(vals, level+float64(r.IntN(11)-5))
			}
		}
	}
	level += 500 // the edge that never returns
	for k := 0; k < 3; k++ {
		vals = append(vals, level)
	}
	return &tsagg.Series{Start: 1000, Step: 10, Vals: vals}
}

func sameEdges(got, want []Edge) bool {
	if len(got) != len(want) || (got == nil) != (want == nil) {
		return false
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.StartIdx != w.StartIdx || g.EndIdx != w.EndIdx || g.T != w.T || g.Rising != w.Rising ||
			!bitsEq(g.AmplitudeW, w.AmplitudeW) || g.DurationSec != w.DurationSec {
			return false
		}
	}
	return true
}

func sameBands(got, want []BandSummary) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Band != w.Band || g.Label != w.Label || !bitsEq(g.MeanGPUs, w.MeanGPUs) ||
			!bitsEq(g.MaxGPUs, w.MaxGPUs) || !bitsEq(g.MeanShare, w.MeanShare) {
			return false
		}
	}
	return true
}

func samePrecursorStats(g, w PrecursorStats) bool {
	return g.Precursor == w.Precursor && g.Outcome == w.Outcome && g.WindowSec == w.WindowSec &&
		g.Precursors == w.Precursors && g.Followed == w.Followed && g.MedianLeadSec == w.MedianLeadSec &&
		bitsEq(g.HitRate, w.HitRate) && bitsEq(g.BaseRate, w.BaseRate) && bitsEq(g.Lift, w.Lift)
}

// propertyLog draws an unsorted failure log over four GPUs of two nodes on
// a coarse time grid, so same-second ties are common, with the types of
// the paper's pairs — PageRetirementEvent is the outcome of one and the
// precursor of the next — plus one that belongs to no pair.
func propertyLog(r *rng.Source) []failures.Event {
	types := []failures.Type{
		failures.MicrocontrollerWarning, failures.DriverErrorHandling,
		failures.DoubleBitError, failures.PageRetirementEvent, failures.PageRetirementFailure,
		failures.NVLinkError,
	}
	evs := make([]failures.Event, r.IntN(60))
	for i := range evs {
		evs[i] = failures.Event{
			Time: int64(100 * r.IntN(80)),
			Node: topology.NodeID(r.IntN(2)),
			Slot: topology.GPUSlot(r.IntN(2)),
			Type: types[r.IntN(len(types))],
		}
	}
	return evs
}

// TestOperatorsMatchReferences is the property test behind the online
// operators: on seeded inputs the batch entry points that fold through
// them equal the naive reference loops of reference_test.go bit for bit.
func TestOperatorsMatchReferences(t *testing.T) {
	r := rng.New(26)
	for trial := 0; trial < 300; trial++ {
		s := propertySeries(r)
		if got, want := DetectEdgesThreshold(s, 50), refDetectEdges(s, 50); !sameEdges(got, want) {
			t.Fatalf("trial %d edges over %v:\ngot  %+v\nwant %+v", trial, s.Vals, got, want)
		}

		var bands [NumTempBands]*tsagg.Series
		n := 1 + r.IntN(40)
		for b := range bands {
			m := n
			if trial%7 == 0 {
				m = 1 + r.IntN(40) // unequal lengths: a short band reads NaN past its end
			}
			bands[b] = tsagg.NewSeries(0, 10, m)
			for i := range bands[b].Vals {
				if r.IntN(8) > 0 {
					bands[b].Vals[i] = float64(r.IntN(25))
				}
			}
		}
		nodes := r.IntN(5)
		got, err := thermalBandsFrom(bands, nodes)
		want, werr := refThermalBands(bands, nodes)
		if err != nil || werr != nil || !sameBands(got, want) {
			t.Fatalf("trial %d bands:\ngot  %+v (%v)\nwant %+v (%v)", trial, got, err, want, werr)
		}

		evs := propertyLog(r)
		window := []int64{100, 300, 3600}[r.IntN(3)]
		gpuWindows := float64(r.IntN(3)) * 50
		for _, pr := range [][2]failures.Type{
			{failures.MicrocontrollerWarning, failures.DriverErrorHandling},
			{failures.DriverErrorHandling, failures.MicrocontrollerWarning},
			{failures.DoubleBitError, failures.PageRetirementEvent},
			{failures.PageRetirementEvent, failures.PageRetirementFailure},
		} {
			got, err := EarlyWarning(evs, pr[0], pr[1], window, gpuWindows)
			want, werr := refEarlyWarning(evs, pr[0], pr[1], window, gpuWindows)
			if err != nil || werr != nil || !samePrecursorStats(*got, *want) {
				t.Fatalf("trial %d %v→%v over %+v:\ngot  %+v\nwant %+v", trial, pr[0], pr[1], evs, got, want)
			}
		}
		span := int64(100 * r.IntN(100))
		window = []int64{0, 300, 3600}[r.IntN(3)]
		gotPairs := earlyWarningPairs(evs, 2, span, window)
		wantPairs, err := refEarlyWarningPairs(evs, 2, span, window)
		if err != nil || len(gotPairs) != len(wantPairs) {
			t.Fatalf("trial %d pairs: %d vs %d (%v)", trial, len(gotPairs), len(wantPairs), err)
		}
		for i := range wantPairs {
			if !samePrecursorStats(gotPairs[i], wantPairs[i]) {
				t.Fatalf("trial %d pair %d over %+v:\ngot  %+v\nwant %+v", trial, i, evs, gotPairs[i], wantPairs[i])
			}
		}
	}
}

// TestEdgeDetectorResolvesDurationsLate: an edge is emitted when it
// closes, with DurationSec -1, and the detector fills the duration in on
// the same Edge once the series returns.
func TestEdgeDetectorResolvesDurationsLate(t *testing.T) {
	var got []*Edge
	d := NewEdgeDetector(150, func(e *Edge) { got = append(got, e) })
	for i, v := range []float64{100, 400, 400, 300} {
		d.Push(int64(10*i), v)
	}
	if len(got) != 1 || got[0].DurationSec != -1 {
		t.Fatalf("after the edge closed: %+v, want one edge, duration -1", got)
	}
	d.Push(40, 150) // 80 % of the way back from 400 toward 100 is 160
	if got[0].DurationSec != 40 {
		t.Errorf("resolved duration = %d, want 40", got[0].DurationSec)
	}
}
