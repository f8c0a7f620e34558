package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegIncBetaKnownValues(t *testing.T) {
	cases := []struct {
		a, b, x, want float64
	}{
		// I_x(1,1) = x (uniform CDF).
		{1, 1, 0.3, 0.3},
		{1, 1, 0.75, 0.75},
		// I_x(2,2) = 3x² - 2x³.
		{2, 2, 0.5, 0.5},
		{2, 2, 0.25, 3*0.0625 - 2*0.015625},
		// I_x(0.5,0.5) = (2/π)·asin(√x) (arcsine distribution).
		{0.5, 0.5, 0.5, 0.5},
		{0.5, 0.5, 0.25, 2 / math.Pi * math.Asin(0.5)},
		// Bounds.
		{3, 4, 0, 0},
		{3, 4, 1, 1},
		{3, 4, -0.5, 0},
		{3, 4, 1.5, 1},
	}
	for _, c := range cases {
		if got := RegIncBeta(c.a, c.b, c.x); !approx(got, c.want, 1e-12) {
			t.Errorf("I_%v(%v,%v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestRegIncBetaSymmetry(t *testing.T) {
	// I_x(a,b) = 1 - I_{1-x}(b,a).
	f := func(ra, rb, rx float64) bool {
		a := 0.5 + math.Abs(math.Mod(ra, 10))
		b := 0.5 + math.Abs(math.Mod(rb, 10))
		x := math.Abs(math.Mod(rx, 1))
		lhs := RegIncBeta(a, b, x)
		rhs := 1 - RegIncBeta(b, a, 1-x)
		return approx(lhs, rhs, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStudentTCDF(t *testing.T) {
	cases := []struct {
		t, df, want, tol float64
	}{
		{0, 10, 0.5, 1e-14},
		// t(1) is Cauchy: CDF(1) = 3/4.
		{1, 1, 0.75, 1e-12},
		{-1, 1, 0.25, 1e-12},
		// Large df approaches normal: CDF(1.96, 1e6) ≈ 0.975.
		{1.96, 1e6, 0.975, 1e-4},
		// Reference value: CDF(2.228, 10) ≈ 0.975 (97.5th pct of t10).
		{2.228, 10, 0.975, 2e-4},
	}
	for _, c := range cases {
		if got := StudentTCDF(c.t, c.df); !approx(got, c.want, c.tol) {
			t.Errorf("T_%v(%v) = %v, want %v", c.df, c.t, got, c.want)
		}
	}
	if !math.IsNaN(StudentTCDF(1, 0)) {
		t.Error("df<=0 must be NaN")
	}
}

func TestStudentTTwoSidedP(t *testing.T) {
	// p = 2·(1 - CDF(|t|)).
	for _, tv := range []float64{0.5, 1, 2, 3.5} {
		for _, df := range []float64{1, 5, 30, 200} {
			want := 2 * (1 - StudentTCDF(tv, df))
			if got := StudentTTwoSidedP(tv, df); !approx(got, want, 1e-10) {
				t.Errorf("p(%v, %v) = %v, want %v", tv, df, got, want)
			}
			// Symmetric in t.
			if got := StudentTTwoSidedP(-tv, df); !approx(got, want, 1e-10) {
				t.Errorf("p(-t) asymmetric")
			}
		}
	}
	if got := StudentTTwoSidedP(0, 7); !approx(got, 1, 1e-12) {
		t.Errorf("p at t=0 = %v, want 1", got)
	}
}
