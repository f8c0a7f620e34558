package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil || !approx(r, 1, 1e-12) {
		t.Errorf("r = %v, err = %v, want 1", r, err)
	}
	yNeg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(x, yNeg)
	if !approx(r, -1, 1e-12) {
		t.Errorf("r = %v, want -1", r)
	}
}

func TestPearsonKnownValue(t *testing.T) {
	// Hand-computed: x={1,2,3,4}, y={1,3,2,5} → r = 5.5/√43.75.
	x := []float64{1, 2, 3, 4}
	y := []float64{1, 3, 2, 5}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if want := 5.5 / math.Sqrt(43.75); !approx(r, want, 1e-12) {
		t.Errorf("r = %v, want %v", r, want)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("n<2 must error")
	}
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil || !math.IsNaN(r) {
		t.Errorf("constant series must give NaN, got %v, %v", r, err)
	}
}

func TestPearsonBounded(t *testing.T) {
	f := func(x, y []float64) bool {
		n := len(x)
		if len(y) < n {
			n = len(y)
		}
		if n < 2 {
			return true
		}
		xs, ys := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) || math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
				return true
			}
			xs[i], ys[i] = math.Mod(x[i], 1e6), math.Mod(y[i], 1e6)
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return false
		}
		return math.IsNaN(r) || (r >= -1 && r <= 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPearsonSymmetric(t *testing.T) {
	x := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	y := []float64{2, 7, 1, 8, 2, 8, 1, 8}
	r1, _ := Pearson(x, y)
	r2, _ := Pearson(y, x)
	if !approx(r1, r2, 1e-14) {
		t.Errorf("r asymmetric: %v vs %v", r1, r2)
	}
}

func TestPearsonPValue(t *testing.T) {
	// r=0 gives p=1; |r|=1 gives p=0.
	if p := PearsonPValue(0, 10); !approx(p, 1, 1e-12) {
		t.Errorf("p(r=0) = %v", p)
	}
	if p := PearsonPValue(1, 10); p != 0 {
		t.Errorf("p(r=1) = %v", p)
	}
	if p := PearsonPValue(-1, 10); p != 0 {
		t.Errorf("p(r=-1) = %v", p)
	}
	// Reference: r=0.5, n=12 → t = 0.5·sqrt(10/0.75) ≈ 1.8257, df=10,
	// two-sided p ≈ 0.0979.
	if p := PearsonPValue(0.5, 12); !approx(p, 0.0979, 5e-4) {
		t.Errorf("p(0.5, 12) = %v, want ≈0.0979", p)
	}
	// Larger n shrinks p for the same r.
	if PearsonPValue(0.5, 100) >= PearsonPValue(0.5, 12) {
		t.Error("p must shrink with n")
	}
	if !math.IsNaN(PearsonPValue(0.5, 2)) {
		t.Error("n<=2 must be NaN")
	}
	if !math.IsNaN(PearsonPValue(math.NaN(), 10)) {
		t.Error("NaN r must be NaN")
	}
}

func TestPairwiseCorrelation(t *testing.T) {
	n := 200
	a := make([]float64, n)
	b := make([]float64, n) // b = 2a (perfectly correlated)
	c := make([]float64, n) // alternating, uncorrelated with a
	for i := 0; i < n; i++ {
		a[i] = float64(i)
		b[i] = 2 * float64(i)
		c[i] = float64(i % 2)
	}
	res, err := PairwiseCorrelation([][]float64{a, b, c}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d pairs, want 3", len(res))
	}
	// Pair (0,1) is perfect and must be significant.
	if !approx(res[0].R, 1, 1e-9) || !res[0].Significant {
		t.Errorf("pair(0,1) = %+v, want significant r=1", res[0])
	}
	// Pair (0,2): r near 0 — must not be significant.
	if res[1].I != 0 || res[1].J != 2 {
		t.Fatalf("pair ordering wrong: %+v", res[1])
	}
	if math.Abs(res[1].R) > 0.2 || res[1].Significant {
		t.Errorf("pair(0,2) = %+v, want insignificant ~0", res[1])
	}
}

func TestPairwiseCorrelationErrors(t *testing.T) {
	if _, err := PairwiseCorrelation([][]float64{{1, 2}}, 0.05); err == nil {
		t.Error("single variable must error")
	}
	if _, err := PairwiseCorrelation([][]float64{{1, 2}, {1}}, 0.05); err == nil {
		t.Error("ragged input must error")
	}
}
