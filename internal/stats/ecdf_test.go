package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasic(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2, 4})
	if e.N() != 4 {
		t.Fatalf("N = %d", e.N())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.5}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFDropsNaN(t *testing.T) {
	e := NewECDF([]float64{1, math.NaN(), 2})
	if e.N() != 2 {
		t.Errorf("N = %d, want 2", e.N())
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(1) != 0 {
		t.Error("empty ECDF At must be 0")
	}
	if !math.IsNaN(e.Quantile(0.5)) {
		t.Error("empty ECDF quantile must be NaN")
	}
	xs, ys := e.Curve(10)
	if xs != nil || ys != nil {
		t.Error("empty ECDF curve must be nil")
	}
}

func TestECDFMonotonicProperty(t *testing.T) {
	f := func(raw []float64, probes []float64) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewECDF(raw)
		sort.Float64s(probes)
		prev := -1.0
		for _, p := range probes {
			if math.IsNaN(p) {
				continue
			}
			v := e.At(p)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Errorf("q0.5 = %v", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Errorf("q0.25 = %v", q)
	}
	if q := Quantile(xs, 0.125); q != 1.5 {
		t.Errorf("q0.125 = %v (interpolation)", q)
	}
	if m := Median([]float64{9, 1, 5}); m != 5 {
		t.Errorf("median = %v", m)
	}
}

func TestQuantileOrderedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		clean := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		e := NewECDF(clean)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0001; p += 0.1 {
			q := e.Quantile(p)
			if q < prev {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestECDFCurve(t *testing.T) {
	e := NewECDF([]float64{0, 10})
	xs, ys := e.Curve(11)
	if len(xs) != 11 || len(ys) != 11 {
		t.Fatalf("curve lengths %d/%d", len(xs), len(ys))
	}
	if xs[0] != 0 || xs[10] != 10 {
		t.Errorf("curve x range [%v, %v]", xs[0], xs[10])
	}
	if ys[10] != 1 {
		t.Errorf("curve must end at 1, got %v", ys[10])
	}
	// Degenerate constant sample.
	xs, ys = NewECDF([]float64{5, 5, 5}).Curve(10)
	if len(xs) != 1 || ys[0] != 1 {
		t.Errorf("constant sample curve = %v/%v", xs, ys)
	}
}

func TestBoxPlot(t *testing.T) {
	// 1..11 with one wild outlier.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 100}
	b := NewBoxPlot(xs)
	if b.N != 12 {
		t.Fatalf("N = %d", b.N)
	}
	if b.Min != 1 || b.Max != 100 {
		t.Errorf("min/max = %v/%v", b.Min, b.Max)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("outliers = %v, want [100]", b.Outliers)
	}
	if b.Hi != 11 {
		t.Errorf("non-outlier hi = %v, want 11", b.Hi)
	}
	if b.NonOutlierSpread() != 10 {
		t.Errorf("spread = %v, want 10", b.NonOutlierSpread())
	}
	if b.Median < 5 || b.Median > 7 {
		t.Errorf("median = %v", b.Median)
	}
}

func TestBoxPlotEmpty(t *testing.T) {
	b := NewBoxPlot(nil)
	if b.N != 0 || b.NonOutlierSpread() != 0 {
		t.Error("empty boxplot must be zero")
	}
}

func TestBoxPlotInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		clean := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		b := NewBoxPlot(clean)
		return b.Min <= b.Q1 && b.Q1 <= b.Median &&
			b.Median <= b.Q3 && b.Q3 <= b.Max &&
			b.Lo <= b.Hi && b.N == len(clean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
