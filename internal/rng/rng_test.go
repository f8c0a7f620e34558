package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical draws", same)
	}
}

func TestSplitIndependentOfConsumption(t *testing.T) {
	a, b := New(7), New(7)
	// Consume from a only; Split must still agree.
	for i := 0; i < 50; i++ {
		a.Float64()
	}
	ca, cb := a.Split("workload"), b.Split("workload")
	for i := 0; i < 100; i++ {
		if ca.Float64() != cb.Float64() {
			t.Fatal("Split depends on parent consumption")
		}
	}
}

func TestSplitLabelsDisjoint(t *testing.T) {
	root := New(7)
	a, b := root.Split("alpha"), root.Split("beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different labels produced %d/100 identical draws", same)
	}
}

func TestSplitNDistinct(t *testing.T) {
	root := New(9)
	seen := map[float64]bool{}
	for n := 0; n < 200; n++ {
		v := root.SplitN("node", n).Float64()
		if seen[v] {
			t.Fatalf("SplitN collision at n=%d", n)
		}
		seen[v] = true
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(3)
	const n = 200_000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %v, want ≈10", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Errorf("normal std = %v, want ≈2", std)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	s := New(4)
	f := func(seed uint64) bool {
		v := s.TruncNormal(5, 10, 0, 6)
		return v >= 0 && v <= 6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Degenerate: bounds exclude the mean entirely — clamp fallback.
	v := s.TruncNormal(100, 0.001, 0, 1)
	if v < 0 || v > 1 {
		t.Errorf("trunc fallback out of bounds: %v", v)
	}
}

func TestParetoTail(t *testing.T) {
	s := New(5)
	const n = 100_000
	ge := 0
	for i := 0; i < n; i++ {
		v := s.Pareto(1, 2)
		if v < 1 {
			t.Fatalf("pareto sample %v below scale", v)
		}
		if v >= 2 {
			ge++
		}
	}
	// P(X >= 2) = (1/2)^alpha = 0.25 for alpha=2.
	frac := float64(ge) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("pareto tail fraction = %v, want ≈0.25", frac)
	}
}

func TestPoisson(t *testing.T) {
	s := New(6)
	for _, lambda := range []float64{0, 0.5, 4, 30, 200} {
		const n = 50_000
		sum := 0
		for i := 0; i < n; i++ {
			k := s.Poisson(lambda)
			if k < 0 {
				t.Fatalf("negative poisson sample")
			}
			sum += k
		}
		mean := float64(sum) / n
		tol := 0.05*lambda + 0.05
		if math.Abs(mean-lambda) > tol {
			t.Errorf("poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestCategorical(t *testing.T) {
	s := New(10)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100_000
	for i := 0; i < n; i++ {
		counts[s.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Error("zero-weight category sampled")
	}
	frac0 := float64(counts[0]) / n
	if math.Abs(frac0-0.25) > 0.01 {
		t.Errorf("category 0 fraction = %v, want ≈0.25", frac0)
	}
}

func TestCategoricalPanics(t *testing.T) {
	s := New(11)
	for _, w := range [][]float64{nil, {}, {0, 0}, {1, -1}} {
		w := w
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) did not panic", w)
				}
			}()
			s.Categorical(w)
		}()
	}
}

func TestIntRange(t *testing.T) {
	s := New(12)
	for i := 0; i < 1000; i++ {
		v := s.IntRange(5, 7)
		if v < 5 || v > 7 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
	}
	if v := s.IntRange(3, 3); v != 3 {
		t.Errorf("degenerate range = %d, want 3", v)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("IntRange(5,4) did not panic")
			}
		}()
		s.IntRange(5, 4)
	}()
}

func TestUniformAndJitter(t *testing.T) {
	s := New(13)
	for i := 0; i < 1000; i++ {
		if v := s.Uniform(-2, 3); v < -2 || v >= 3 {
			t.Fatalf("Uniform out of range: %v", v)
		}
		if v := s.Jitter(100, 0.1); v < 90 || v > 110 {
			t.Fatalf("Jitter out of range: %v", v)
		}
	}
}

func TestPerm(t *testing.T) {
	s := New(14)
	p := s.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(15)
	for i := 0; i < 1000; i++ {
		if v := s.LogNormal(0, 2); v <= 0 {
			t.Fatalf("lognormal sample %v not positive", v)
		}
	}
}

func BenchmarkNormal(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Normal(0, 1)
	}
}

func BenchmarkCategorical(b *testing.B) {
	s := New(1)
	w := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Categorical(w)
	}
}
