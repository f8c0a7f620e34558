package core

import (
	"math"
	"testing"

	"repro/internal/tsagg"
	"repro/internal/units"
)

// mkSeries builds a 10s-step series from values.
func mkSeries(vals ...float64) *tsagg.Series {
	s := tsagg.NewSeries(0, 10, len(vals))
	copy(s.Vals, vals)
	return s
}

func TestDetectEdgesBasic(t *testing.T) {
	// 1-node series; threshold 868 W. Rise of 1000, fall of 1000.
	s := mkSeries(500, 500, 1500, 1500, 1500, 500, 500)
	edges := DetectEdges(s, 1)
	if len(edges) != 2 {
		t.Fatalf("got %d edges, want 2: %+v", len(edges), edges)
	}
	up, down := edges[0], edges[1]
	if !up.Rising || up.AmplitudeW != 1000 || up.StartIdx != 1 {
		t.Errorf("rising edge = %+v", up)
	}
	if down.Rising || down.AmplitudeW != -1000 {
		t.Errorf("falling edge = %+v", down)
	}
}

func TestDetectEdgesThresholdScalesWithNodes(t *testing.T) {
	// A 10 kW swing is an edge for 10 nodes (threshold 8.68 kW) but not
	// for 12 nodes (10.4 kW).
	s := mkSeries(5000, 15000, 15000)
	if got := DetectEdges(s, 10); len(got) != 1 {
		t.Errorf("10-node edges = %d, want 1", len(got))
	}
	if got := DetectEdges(s, 12); len(got) != 0 {
		t.Errorf("12-node edges = %d, want 0", len(got))
	}
}

func TestDetectEdgesMergesRamp(t *testing.T) {
	// A 3-window monotone ramp of 1 kW per window merges into one edge of
	// 3 kW amplitude.
	s := mkSeries(1000, 2000, 3000, 4000, 4000)
	edges := DetectEdges(s, 1)
	if len(edges) != 1 {
		t.Fatalf("got %d edges, want 1 merged", len(edges))
	}
	if edges[0].AmplitudeW != 3000 || edges[0].StartIdx != 0 || edges[0].EndIdx != 3 {
		t.Errorf("merged edge = %+v", edges[0])
	}
}

func TestDetectEdgesNaNBreaks(t *testing.T) {
	s := mkSeries(500, math.NaN(), 2000, 2000)
	if got := DetectEdges(s, 1); len(got) != 0 {
		t.Errorf("edge across NaN detected: %+v", got)
	}
}

func TestDetectEdgesDegenerate(t *testing.T) {
	if DetectEdges(nil, 1) != nil {
		t.Error("nil series must give nil")
	}
	if DetectEdges(mkSeries(1), 1) != nil {
		t.Error("single-point series must give nil")
	}
	if DetectEdges(mkSeries(0, 1e9), 0) != nil {
		t.Error("zero nodes must give nil")
	}
}

func TestEdgeDuration(t *testing.T) {
	// Rise from 1000 to 3000 (base 1000, peak 3000); 80% return level is
	// 3000 - 0.8*2000 = 1400. Values: fall to 1300 at index 5.
	s := mkSeries(1000, 3000, 3000, 3000, 2000, 1300, 1300)
	edges := DetectEdges(s, 1)
	if len(edges) == 0 {
		t.Fatal("no edge")
	}
	// Edge starts at index 0 (t=0); return at index 5 (t=50).
	if edges[0].DurationSec != 50 {
		t.Errorf("duration = %d, want 50", edges[0].DurationSec)
	}
}

func TestEdgeDurationUnresolved(t *testing.T) {
	// Power never returns: duration -1.
	s := mkSeries(1000, 3000, 3000, 3000)
	edges := DetectEdges(s, 1)
	if len(edges) != 1 || edges[0].DurationSec != -1 {
		t.Errorf("edges = %+v, want one unresolved", edges)
	}
}

func TestEdgeDurationFalling(t *testing.T) {
	// Falling edge from 3000 to 1000; 80% return toward base 3000 is
	// 1000 + 0.8*2000 = 2600; reached at index 4 (t=40), edge start t=0.
	// (The 1000→2000 recovery step is itself a rising edge; only the
	// first, falling edge matters here.)
	s := mkSeries(3000, 1000, 1000, 2000, 2700)
	edges := DetectEdges(s, 1)
	if len(edges) < 1 {
		t.Fatalf("edges = %+v", edges)
	}
	if edges[0].Rising {
		t.Fatal("edge should be falling")
	}
	if edges[0].DurationSec != 40 {
		t.Errorf("duration = %d, want 40", edges[0].DurationSec)
	}
}

func TestBinEdgesByMW(t *testing.T) {
	edges := []Edge{
		{Rising: true, AmplitudeW: 1.5e6},
		{Rising: true, AmplitudeW: 1.9e6},
		{Rising: true, AmplitudeW: 4.2e6},
		{Rising: true, AmplitudeW: 0.5e6}, // below 1 MW: dropped
		{Rising: false, AmplitudeW: -7e6}, // falling: dropped
	}
	bins := BinEdges(edges, units.WattsPerMW, true)
	if len(bins[1]) != 2 || len(bins[4]) != 1 {
		t.Errorf("bins = %v", bins)
	}
	if _, ok := bins[0]; ok {
		t.Error("sub-MW bin must not exist")
	}
	if _, ok := bins[7]; ok {
		t.Error("falling edges must not bin")
	}
}

func TestSuperimposeAround(t *testing.T) {
	// Two identical bumps: superposition must recover the bump exactly
	// with zero CI.
	s := tsagg.NewSeries(0, 10, 40)
	for i := range s.Vals {
		s.Vals[i] = 100
	}
	for _, center := range []int{10, 30} {
		s.Vals[center] = 200
		s.Vals[center+1] = 150
	}
	stack := SuperimposeAround(s, []int64{100, 300}, 20, 30)
	if stack == nil || stack.Count != 2 {
		t.Fatal("stack missing")
	}
	if len(stack.OffsetSec) != 6 {
		t.Fatalf("offsets = %v", stack.OffsetSec)
	}
	// Offset 0 is the aligned edge: both snapshots read 200.
	idx0 := 2 // offsets: -20,-10,0,10,20,30
	if stack.OffsetSec[idx0] != 0 {
		t.Fatalf("offset layout = %v", stack.OffsetSec)
	}
	if stack.Mean[idx0] != 200 || stack.CIHalf[idx0] != 0 {
		t.Errorf("aligned mean/CI = %v/%v, want 200/0", stack.Mean[idx0], stack.CIHalf[idx0])
	}
	if stack.Mean[idx0+1] != 150 {
		t.Errorf("post-edge mean = %v, want 150", stack.Mean[idx0+1])
	}
}

func TestSuperimposeAroundEdgesOfRange(t *testing.T) {
	s := tsagg.NewSeries(0, 10, 10)
	for i := range s.Vals {
		s.Vals[i] = float64(i)
	}
	// Time near the start: pre-window falls outside; those offsets NaN.
	stack := SuperimposeAround(s, []int64{0}, 30, 30)
	if !math.IsNaN(stack.Mean[0]) {
		t.Error("out-of-range offset must be NaN")
	}
	if stack.Mean[3] != 0 {
		t.Errorf("aligned value = %v, want 0", stack.Mean[3])
	}
	if SuperimposeAround(s, nil, 10, 10) != nil {
		t.Error("no times must give nil")
	}
	if SuperimposeAround(nil, []int64{0}, 10, 10) != nil {
		t.Error("nil series must give nil")
	}
}

func TestEdgeTimes(t *testing.T) {
	edges := []Edge{{T: 10}, {T: 30}}
	times := EdgeTimes(edges)
	if len(times) != 2 || times[0] != 10 || times[1] != 30 {
		t.Errorf("times = %v", times)
	}
}

func TestClusterEdgeThreshold(t *testing.T) {
	// 4608 nodes → ≈4 MW (paper).
	if mw := ClusterEdgeThresholdMW(4608); mw < 3.9 || mw > 4.1 {
		t.Errorf("threshold = %v MW", mw)
	}
	_ = units.EdgeThresholdPerNode
}

func TestDetectEdgesScaleInvariance(t *testing.T) {
	// Scaling the series and the threshold together preserves the edge
	// structure exactly.
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			vals = append(vals, math.Mod(v, 1e6))
		}
		if len(vals) < 3 {
			return true
		}
		s1 := mkSeries(vals...)
		scaled := make([]float64, len(vals))
		for i, v := range vals {
			scaled[i] = v * 1000
		}
		s2 := mkSeries(scaled...)
		e1 := DetectEdgesThreshold(s1, 500)
		e2 := DetectEdgesThreshold(s2, 500*1000)
		if len(e1) != len(e2) {
			return false
		}
		for i := range e1 {
			if e1[i].StartIdx != e2[i].StartIdx || e1[i].Rising != e2[i].Rising ||
				e1[i].DurationSec != e2[i].DurationSec {
				return false
			}
		}
		return true
	}
	if err := quickCheck(f, 200); err != nil {
		t.Error(err)
	}
}

func TestSuperimposeMeanBounded(t *testing.T) {
	// Superimposed means are convex combinations of series values: they
	// must stay within the series' min/max.
	s := tsagg.NewSeries(0, 10, 100)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range s.Vals {
		v := 100 + 50*math.Sin(float64(i)/5) + float64(i%7)
		s.Vals[i] = v
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	stack := SuperimposeAround(s, []int64{100, 300, 500, 700}, 60, 120)
	for k, m := range stack.Mean {
		if math.IsNaN(m) {
			continue
		}
		if m < lo-1e-9 || m > hi+1e-9 {
			t.Fatalf("offset %d mean %v outside [%v, %v]", stack.OffsetSec[k], m, lo, hi)
		}
	}
}
