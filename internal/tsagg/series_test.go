package tsagg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCoarsenBasic(t *testing.T) {
	var samples []Sample
	// Two full 10s windows: values 0..9 then 10..19.
	for i := 0; i < 20; i++ {
		samples = append(samples, Sample{T: 1000 + int64(i), V: float64(i)})
	}
	ws := Coarsen(samples, 10)
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	w0 := ws[0]
	if w0.T != 1000 || w0.Count != 10 || w0.Min != 0 || w0.Max != 9 || !approx(w0.Mean, 4.5, 1e-12) {
		t.Errorf("window 0 = %+v", w0)
	}
	w1 := ws[1]
	if w1.T != 1010 || w1.Count != 10 || w1.Min != 10 || w1.Max != 19 || !approx(w1.Mean, 14.5, 1e-12) {
		t.Errorf("window 1 = %+v", w1)
	}
	// Std of 0..9 is sqrt(8.25) ≈ 2.8723.
	if !approx(w0.Std, math.Sqrt(8.25), 1e-12) {
		t.Errorf("window 0 std = %v", w0.Std)
	}
}

func TestCoarsenAlignment(t *testing.T) {
	// Samples at t=1004..1015 must split at the aligned boundary 1010,
	// not at the first-seen timestamp.
	var samples []Sample
	for i := int64(1004); i < 1016; i++ {
		samples = append(samples, Sample{T: i, V: 1})
	}
	ws := Coarsen(samples, 10)
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	if ws[0].T != 1000 || ws[0].Count != 6 {
		t.Errorf("window 0 = %+v, want T=1000 Count=6", ws[0])
	}
	if ws[1].T != 1010 || ws[1].Count != 6 {
		t.Errorf("window 1 = %+v, want T=1010 Count=6", ws[1])
	}
}

func TestCoarsenGapsSkipEmptyWindows(t *testing.T) {
	samples := []Sample{{T: 0, V: 1}, {T: 35, V: 2}}
	ws := Coarsen(samples, 10)
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2 (empty windows skipped)", len(ws))
	}
	if ws[0].T != 0 || ws[1].T != 30 {
		t.Errorf("window starts = %d, %d", ws[0].T, ws[1].T)
	}
}

func TestCoarsenLateSamplesTolerated(t *testing.T) {
	// A sample stamped before the window of the sample ahead of it joins
	// its own window: telemetry timestamps payloads up to 5 s late (paper
	// §3), and reordering moves no sample between windows.
	ws := Coarsen([]Sample{{T: 100, V: 1}, {T: 112, V: 2}, {T: 109, V: 3}}, 10)
	if len(ws) != 2 {
		t.Fatalf("got %d windows", len(ws))
	}
	if ws[0].T != 100 || ws[0].Count != 2 || ws[0].Max != 3 || ws[1].T != 110 || ws[1].Count != 1 {
		t.Errorf("late sample not in its own window: %+v", ws)
	}
}

func TestCoarsenNegativeTimes(t *testing.T) {
	ws := Coarsen([]Sample{{T: -15, V: 1}, {T: -11, V: 2}, {T: -5, V: 3}}, 10)
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	if ws[0].T != -20 || ws[1].T != -10 {
		t.Errorf("window starts = %d, %d, want -20, -10", ws[0].T, ws[1].T)
	}
}

func TestModFloorsTowardNegativeInfinity(t *testing.T) {
	// mod is the window-alignment primitive: it must return a value in
	// [0, b) for any sign of a, so negative timestamps floor-align instead
	// of truncating toward zero like Go's % operator.
	cases := []struct{ a, b, want int64 }{
		{0, 10, 0},
		{7, 10, 7},
		{10, 10, 0},
		{-1, 10, 9},
		{-10, 10, 0},
		{-15, 10, 5},
		{-1, 86400, 86399},
		{math.MaxInt64, 3, math.MaxInt64 % 3},
	}
	for _, c := range cases {
		if got := FloorMod(c.a, c.b); got != c.want {
			t.Errorf("FloorMod(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCoarsenerFlushEmpty(t *testing.T) {
	// No samples, no windows; one sample, one window.
	if ws := Coarsen(nil, 10); len(ws) != 0 {
		t.Fatalf("empty input gave %d windows", len(ws))
	}
	if ws := Coarsen([]Sample{{T: 5, V: 1}}, 10); len(ws) != 1 || ws[0].T != 0 || ws[0].Count != 1 {
		t.Errorf("one sample gave %+v, want one window at 0", ws)
	}
}

func TestCoarsenerOutOfOrderWithinWindow(t *testing.T) {
	// Reordering WITHIN one window must not split it or change its stats.
	ordered := Coarsen([]Sample{{T: 100, V: 1}, {T: 103, V: 5}, {T: 107, V: 3}}, 10)
	shuffled := Coarsen([]Sample{{T: 107, V: 3}, {T: 100, V: 1}, {T: 103, V: 5}}, 10)
	if len(ordered) != 1 || len(shuffled) != 1 {
		t.Fatalf("windows = %d ordered, %d shuffled, want 1 each", len(ordered), len(shuffled))
	}
	a, b := ordered[0], shuffled[0]
	if a.T != b.T || a.Count != b.Count || a.Min != b.Min || a.Max != b.Max ||
		!approx(a.Mean, b.Mean, 1e-12) || !approx(a.Std, b.Std, 1e-12) {
		t.Errorf("ordered %+v != shuffled %+v", a, b)
	}
}

func TestCoarsenerDuplicateTimestamps(t *testing.T) {
	// Duplicate timestamps are distinct observations (the BMC can report
	// twice in one second): each must count into the same window — never
	// deduplicated, never split.
	ws := Coarsen([]Sample{{T: 100, V: 1}, {T: 100, V: 3}, {T: 100, V: 3}, {T: 105, V: 5}}, 10)
	if len(ws) != 1 {
		t.Fatalf("got %d windows, want 1", len(ws))
	}
	if w := ws[0]; w.Count != 4 || w.Min != 1 || w.Max != 5 || !approx(w.Mean, 3, 1e-12) {
		t.Errorf("duplicates mishandled: %+v", w)
	}
}

func TestCoarsenerDuplicateTimestampAfterWindowAdvance(t *testing.T) {
	// A duplicate of a timestamp whose window is behind the input's newest
	// joins that window, not the newest one, and is never dropped.
	ws := Coarsen([]Sample{{T: 100, V: 1}, {T: 112, V: 2}, {T: 100, V: 9}}, 10)
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	if ws[0].T != 100 || ws[0].Count != 2 || ws[0].Max != 9 {
		t.Errorf("late duplicate not in its own window: %+v", ws[0])
	}
	if ws[1].T != 110 || ws[1].Count != 1 || ws[1].Max != 2 {
		t.Errorf("newest window took a sample not its own: %+v", ws[1])
	}
}

func TestCoarsenerBackwardsAcrossManyWindows(t *testing.T) {
	// A sample arbitrarily far in the past still lands in its own window:
	// the batch form has no lateness bound. (The streaming plane's
	// event-time coarsener drops, and counts, what comes later than its
	// bound; this pins the batch side of the contract.)
	ws := Coarsen([]Sample{{T: 1000, V: 1}, {T: 5, V: 2}}, 10) // ~100 windows in the past
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	if ws[0].T != 0 || ws[0].Count != 1 || ws[1].T != 1000 || ws[1].Count != 1 {
		t.Errorf("ancient sample not in its own window: %+v", ws)
	}
}

func TestCoarsenerPanics(t *testing.T) {
	for _, window := range []int64{0, -10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("window %d: expected panic", window)
				}
			}()
			Coarsen([]Sample{{T: 1, V: 1}}, window)
		}()
	}
}

// ulps is how many float64 steps separate a and b (same sign assumed).
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

// TestCoarsenIsAPerWindowRelation pins §3's summary as a relation on the
// sample set, not on its order: over seeded random samples — stragglers,
// duplicates and negative times included — any permutation gives the same
// window starts and the same Count, Min and Max bit for bit, and a Mean
// within 2 ULPs per sample of the window (Welford's running mean rounds
// once per update); and coarsening a ++ b counts, per window, what a and b
// count apart, with the min of the Mins and the max of the Maxes.
func TestCoarsenIsAPerWindowRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		window := []int64{1, 7, 10, 60, 600}[rng.Intn(5)]
		samples := make([]Sample, 1+rng.Intn(400))
		for i := range samples {
			samples[i] = Sample{T: rng.Int63n(4000) - 1000, V: 100 + 1000*rng.Float64()}
			if i > 0 && rng.Intn(8) == 0 {
				samples[i].T = samples[i-1].T // a duplicate stamp
			}
		}
		want := Coarsen(samples, window)
		perm := slices.Clone(samples)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		got := Coarsen(perm, window)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d windows permuted, %d in order", trial, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.T != w.T || g.Count != w.Count || math.Float64bits(g.Min) != math.Float64bits(w.Min) ||
				math.Float64bits(g.Max) != math.Float64bits(w.Max) || ulps(g.Mean, w.Mean) > 2*uint64(w.Count) {
				t.Fatalf("trial %d window %d: permuted %+v, in order %+v", trial, i, g, w)
			}
		}

		cut := rng.Intn(len(samples) + 1)
		byT := map[int64]WindowStat{}
		for _, part := range [][]Sample{samples[:cut], samples[cut:]} {
			for _, w := range Coarsen(part, window) {
				if s, ok := byT[w.T]; ok {
					w.Count += s.Count
					w.Min, w.Max = math.Min(w.Min, s.Min), math.Max(w.Max, s.Max)
				}
				byT[w.T] = w
			}
		}
		if len(byT) != len(want) {
			t.Fatalf("trial %d: the halves cover %d windows, the whole %d", trial, len(byT), len(want))
		}
		for _, w := range want {
			if s := byT[w.T]; s.Count != w.Count || s.Min != w.Min || s.Max != w.Max {
				t.Fatalf("trial %d window %d: halves %+v, whole %+v", trial, w.T, s, w)
			}
		}
	}
}

func TestCoarsenInvariantsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		samples := make([]Sample, 0, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			samples = append(samples, Sample{T: int64(i), V: math.Mod(v, 1e6)})
		}
		total := int64(0)
		for _, w := range Coarsen(samples, 10) {
			if !(w.Min <= w.Mean && w.Mean <= w.Max) || w.Std < 0 || w.Count <= 0 {
				return false
			}
			if FloorMod(w.T, 10) != 0 {
				return false
			}
			total += w.Count
		}
		return total == int64(len(samples))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSeriesBasics(t *testing.T) {
	s := NewSeries(100, 10, 5)
	if s.Len() != 5 || s.End() != 150 {
		t.Fatalf("len/end = %d/%d", s.Len(), s.End())
	}
	if !s.Set(120, 7) {
		t.Fatal("Set in range failed")
	}
	if s.Set(150, 1) || s.Set(99, 1) {
		t.Error("Set out of range succeeded")
	}
	if s.At(120) != 7 {
		t.Errorf("At(120) = %v", s.At(120))
	}
	if !math.IsNaN(s.At(110)) || !math.IsNaN(s.At(0)) {
		t.Error("unset/out-of-range must be NaN")
	}
	if s.TimeAt(3) != 130 {
		t.Errorf("TimeAt(3) = %d", s.TimeAt(3))
	}
}

func TestSeriesSlice(t *testing.T) {
	s := NewSeries(0, 10, 10)
	for i := 0; i < 10; i++ {
		s.Vals[i] = float64(i)
	}
	sub := s.Slice(25, 55)
	if sub.Start != 20 || sub.Len() != 4 {
		t.Fatalf("slice start/len = %d/%d, want 20/4", sub.Start, sub.Len())
	}
	if sub.Vals[0] != 2 || sub.Vals[3] != 5 {
		t.Errorf("slice vals = %v", sub.Vals)
	}
	// Clamping.
	if got := s.Slice(-100, 5); got.Len() != 1 {
		t.Errorf("clamped slice len = %d", got.Len())
	}
	if got := s.Slice(95, 10000); got.Len() != 1 {
		t.Errorf("tail slice len = %d", got.Len())
	}
	if got := s.Slice(60, 40); got.Len() != 0 {
		t.Errorf("inverted slice len = %d", got.Len())
	}
}

func TestSeriesIntegrate(t *testing.T) {
	s := NewSeries(0, 10, 3)
	s.Vals[0], s.Vals[2] = 100, 200 // middle NaN skipped
	if got := s.Integrate(); got != 3000 {
		t.Errorf("integral = %v, want 3000", got)
	}
}

func TestSeriesCleanAndStats(t *testing.T) {
	s := NewSeries(0, 1, 4)
	s.Vals[1], s.Vals[3] = 2, 4
	clean := s.Clean()
	if len(clean) != 2 || clean[0] != 2 || clean[1] != 4 {
		t.Errorf("clean = %v", clean)
	}
	if m := s.Stats(); m.N != 2 || m.Mean() != 3 {
		t.Errorf("stats = %+v", m)
	}
}

func BenchmarkCoarsen(b *testing.B) {
	samples := make([]Sample, 86400)
	for i := range samples {
		samples[i] = Sample{T: int64(i), V: float64(i % 2300)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Coarsen(samples, 10)
	}
}
