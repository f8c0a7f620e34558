package stats

import (
	"math"
	"testing"
)

func TestSilvermanBandwidth(t *testing.T) {
	if h := SilvermanBandwidth([]float64{1}); h != 1 {
		t.Errorf("tiny sample bandwidth = %v, want 1", h)
	}
	if h := SilvermanBandwidth([]float64{5, 5, 5, 5}); h <= 0 {
		t.Errorf("constant sample bandwidth = %v, want positive floor", h)
	}
	// Standard normal-ish sample: h ≈ 0.9·σ·n^(-1/5).
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i%100) / 100 // uniform-ish, sd ≈ 0.289
	}
	h := SilvermanBandwidth(xs)
	if h <= 0 || h > 1 {
		t.Errorf("bandwidth = %v out of plausible range", h)
	}
}

func TestKDE1DIntegratesToOne(t *testing.T) {
	xs := []float64{-1, 0, 0.5, 2, 3, 3, 4}
	k := NewKDE1D(xs, 0)
	// Trapezoidal integral over a wide grid.
	gx, gy := k.Curve(2000)
	integral := 0.0
	for i := 1; i < len(gx); i++ {
		integral += 0.5 * (gy[i] + gy[i-1]) * (gx[i] - gx[i-1])
	}
	if !approx(integral, 1, 0.01) {
		t.Errorf("KDE integral = %v, want ≈1", integral)
	}
}

func TestKDE1DPeakNearData(t *testing.T) {
	xs := []float64{10, 10, 10, 10, 50}
	k := NewKDE1D(xs, 1)
	if k.At(10) <= k.At(30) {
		t.Error("density at data cluster must exceed density in the gap")
	}
	if k.At(10) <= k.At(50)*2 {
		t.Error("4-point cluster must dominate single point")
	}
}

func TestKDE1DEmptyAndNaN(t *testing.T) {
	k := NewKDE1D([]float64{math.NaN()}, 0)
	if k.At(0) != 0 {
		t.Error("all-NaN KDE must be zero")
	}
	if xs, ys := k.Curve(10); xs != nil || ys != nil {
		t.Error("empty KDE curve must be nil")
	}
}

func TestKDE2DBasics(t *testing.T) {
	xs := []float64{0, 0, 0, 10, 10, 10}
	ys := []float64{0, 0, 0, 10, 10, 10}
	k, err := NewKDE2D(xs, ys, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.xs) != 6 {
		t.Fatalf("retained %d samples, want 6", len(k.xs))
	}
	// Density near clusters exceeds density in between.
	if k.At(0, 0) <= k.At(5, 5) {
		t.Error("cluster density must exceed gap density")
	}
	if k.At(10, 10) <= k.At(5, 5) {
		t.Error("cluster density must exceed gap density")
	}
}

func TestKDE2DErrorsAndNaN(t *testing.T) {
	if _, err := NewKDE2D([]float64{1}, []float64{1, 2}, 0, 0); err == nil {
		t.Error("length mismatch must error")
	}
	k, err := NewKDE2D([]float64{1, math.NaN(), 3}, []float64{1, 2, math.NaN()}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.xs) != 1 {
		t.Errorf("retained %d samples, want 1 (NaN pairs dropped)", len(k.xs))
	}
}

func TestKDE2DGridIntegratesToOne(t *testing.T) {
	xs := []float64{0, 1, 2, 0.5, 1.5, 1}
	ys := []float64{0, 0.5, 1, 1.5, 0.2, 1}
	k, err := NewKDE2D(xs, ys, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := k.Grid(80, 80)
	if g == nil {
		t.Fatal("nil grid")
	}
	dx := (g.X1 - g.X0) / 79
	dy := (g.Y1 - g.Y0) / 79
	integral := 0.0
	for _, row := range g.Z {
		for _, v := range row {
			integral += v * dx * dy
		}
	}
	if !approx(integral, 1, 0.05) {
		t.Errorf("grid integral = %v, want ≈1", integral)
	}
}

func TestKDE2DGridDegenerate(t *testing.T) {
	k, _ := NewKDE2D(nil, nil, 0, 0)
	if k.Grid(10, 10) != nil {
		t.Error("empty estimator must give nil grid")
	}
	k2, _ := NewKDE2D([]float64{1}, []float64{1}, 1, 1)
	if k2.Grid(1, 10) != nil {
		t.Error("nx<2 must give nil grid")
	}
}

func TestModesFindsBimodal(t *testing.T) {
	// Two well-separated clusters produce two modes.
	var xs, ys []float64
	for i := 0; i < 30; i++ {
		xs = append(xs, float64(i%5)*0.1)
		ys = append(ys, float64(i%5)*0.1)
		xs = append(xs, 10+float64(i%5)*0.1)
		ys = append(ys, 10+float64(i%5)*0.1)
	}
	k, _ := NewKDE2D(xs, ys, 0.5, 0.5)
	modes := k.Grid(60, 60).Modes(0.3)
	if len(modes) != 2 {
		t.Fatalf("found %d modes, want 2: %+v", len(modes), modes)
	}
	// One near (0.2,0.2), one near (10.2,10.2).
	lo, hi := modes[0], modes[1]
	if lo.X > hi.X {
		lo, hi = hi, lo
	}
	if math.Abs(lo.X-0.2) > 1 || math.Abs(hi.X-10.2) > 1 {
		t.Errorf("mode locations %v / %v", lo, hi)
	}
}

func BenchmarkKDE2DGrid(b *testing.B) {
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i % 37)
		ys[i] = float64(i % 23)
	}
	k, _ := NewKDE2D(xs, ys, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Grid(40, 40)
	}
}
