package tsagg

import (
	"math"
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
	// A sample arriving with a timestamp before the current window is
	// folded into the current window (telemetry reordering tolerance).
	var got []WindowStat
	c := NewCoarsener(10, func(w WindowStat) { got = append(got, w) })
	c.Add(100, 1)
	c.Add(112, 2)
	c.Add(109, 3) // late: belongs to the 100 window but 110 already open
	c.Flush()
	if len(got) != 2 {
		t.Fatalf("got %d windows", len(got))
	}
	if got[1].Count != 2 {
		t.Errorf("late sample not folded into open window: %+v", got[1])
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
	// Flush with nothing pending must not emit, and flushing twice after a
	// sample must emit exactly once.
	emitted := 0
	c := NewCoarsener(10, func(WindowStat) { emitted++ })
	c.Flush()
	if emitted != 0 {
		t.Fatalf("empty flush emitted %d windows", emitted)
	}
	c.Add(5, 1.0)
	c.Flush()
	c.Flush()
	if emitted != 1 {
		t.Errorf("flush after one sample emitted %d windows, want 1", emitted)
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
	// twice in one second): each must count, in order, into the same
	// window — never deduplicated, never split.
	var got []WindowStat
	c := NewCoarsener(10, func(w WindowStat) { got = append(got, w) })
	c.Add(100, 1)
	c.Add(100, 3)
	c.Add(100, 3)
	c.Add(105, 5)
	c.Flush()
	if len(got) != 1 {
		t.Fatalf("got %d windows, want 1", len(got))
	}
	w := got[0]
	if w.Count != 4 || w.Min != 1 || w.Max != 5 || !approx(w.Mean, 3, 1e-12) {
		t.Errorf("duplicates mishandled: %+v", w)
	}
}

func TestCoarsenerDuplicateTimestampAfterWindowAdvance(t *testing.T) {
	// A duplicate of an already-flushed timestamp is folded into the
	// current window (same rule as any late sample), not silently dropped
	// and not retroactively merged into the closed window.
	var got []WindowStat
	c := NewCoarsener(10, func(w WindowStat) { got = append(got, w) })
	c.Add(100, 1)
	c.Add(112, 2)
	c.Add(100, 9) // duplicate of the first, after window 100 closed
	c.Flush()
	if len(got) != 2 {
		t.Fatalf("got %d windows, want 2", len(got))
	}
	if got[0].Count != 1 || got[0].Max != 1 {
		t.Errorf("closed window mutated: %+v", got[0])
	}
	if got[1].Count != 2 || got[1].Max != 9 {
		t.Errorf("late duplicate not folded into open window: %+v", got[1])
	}
}

func TestCoarsenerBackwardsAcrossManyWindows(t *testing.T) {
	// A sample arbitrarily far in the past still folds into the current
	// window: the batch coarsener has no lateness bound, it trusts the
	// feeder's ordering. (The streaming plane's event-time coarsener makes
	// the opposite choice — bounded lateness with counted drops — and
	// documents the divergence; this pins the batch side of the contract.)
	var got []WindowStat
	c := NewCoarsener(10, func(w WindowStat) { got = append(got, w) })
	c.Add(1000, 1)
	c.Add(5, 2) // ~100 windows in the past
	c.Flush()
	if len(got) != 1 {
		t.Fatalf("got %d windows, want 1", len(got))
	}
	if got[0].T != 1000 || got[0].Count != 2 {
		t.Errorf("ancient sample not folded: %+v", got[0])
	}
}

func TestCoarsenMatchesStreamingCoarsener(t *testing.T) {
	// The batch helper and a hand-driven streaming Coarsener must agree
	// window for window on the same input.
	var samples []Sample
	for i := 0; i < 500; i++ {
		samples = append(samples, Sample{
			T: int64(i*7) - 1000, // crosses zero; irregular spacing vs window
			V: math.Sin(float64(i) / 9),
		})
	}
	batch := Coarsen(samples, 60)
	var streamed []WindowStat
	c := NewCoarsener(60, func(w WindowStat) { streamed = append(streamed, w) })
	for _, s := range samples {
		c.Add(s.T, s.V)
	}
	c.Flush()
	if len(batch) != len(streamed) {
		t.Fatalf("batch %d windows, streamed %d", len(batch), len(streamed))
	}
	for i := range batch {
		if batch[i] != streamed[i] {
			t.Errorf("window %d: batch %+v, streamed %+v", i, batch[i], streamed[i])
		}
	}
}

func TestCoarsenerPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewCoarsener(0, func(WindowStat) {}) },
		func() { NewCoarsener(10, nil) },
	} {
		fn := fn
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
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
