package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMomentsBasic(t *testing.T) {
	var m Moments
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.N != 8 {
		t.Errorf("N = %d, want 8", m.N)
	}
	if m.Min != 2 || m.Max != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", m.Min, m.Max)
	}
	if !approx(m.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", m.Mean())
	}
	if !approx(m.Variance(), 4, 1e-12) {
		t.Errorf("variance = %v, want 4", m.Variance())
	}
	if !approx(m.Std(), 2, 1e-12) {
		t.Errorf("std = %v, want 2", m.Std())
	}
	if !approx(m.Sum(), 40, 1e-9) {
		t.Errorf("sum = %v, want 40", m.Sum())
	}
}

func TestMomentsEmpty(t *testing.T) {
	var m Moments
	if m.Mean() != 0 || m.Variance() != 0 || m.SampleVariance() != 0 || m.Sum() != 0 {
		t.Error("empty accumulator must report zeros")
	}
}

func TestMomentsSingle(t *testing.T) {
	var m Moments
	m.Add(3.5)
	if m.Variance() != 0 || m.SampleVariance() != 0 {
		t.Error("single sample must have zero variance")
	}
	if m.Min != 3.5 || m.Max != 3.5 || m.Mean() != 3.5 {
		t.Error("single sample stats wrong")
	}
}

func TestMomentsWelfordMatchesNaive(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, math.Mod(x, 1e6))
		}
		if len(xs) < 2 {
			return true
		}
		m := Summarize(xs)
		// Naive two-pass variance.
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		v := 0.0
		for _, x := range xs {
			v += (x - mean) * (x - mean)
		}
		v /= float64(len(xs))
		scale := math.Max(1, math.Abs(v))
		return approx(m.Mean(), mean, 1e-7*math.Max(1, math.Abs(mean))) &&
			approx(m.Variance(), v, 1e-6*scale) &&
			m.Min <= m.Mean() && m.Mean() <= m.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMomentsMergeEquivalence(t *testing.T) {
	f := func(a, b []float64) bool {
		clean := func(in []float64) []float64 {
			out := make([]float64, 0, len(in))
			for _, x := range in {
				if !math.IsNaN(x) && !math.IsInf(x, 0) {
					out = append(out, math.Mod(x, 1e6))
				}
			}
			return out
		}
		ca, cb := clean(a), clean(b)
		var ma, mb Moments
		for _, x := range ca {
			ma.Add(x)
		}
		for _, x := range cb {
			mb.Add(x)
		}
		merged := ma
		merged.Merge(mb)
		all := Summarize(append(append([]float64{}, ca...), cb...))
		tol := 1e-6 * math.Max(1, math.Abs(all.Variance()))
		return merged.N == all.N &&
			approx(merged.Mean(), all.Mean(), 1e-7*math.Max(1, math.Abs(all.Mean()))) &&
			approx(merged.Variance(), all.Variance(), tol) &&
			merged.Min == all.Min && merged.Max == all.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMomentsMergeEmpty(t *testing.T) {
	var a, b Moments
	a.Add(1)
	a.Add(3)
	snapshot := a
	a.Merge(b) // merging empty is a no-op
	if a != snapshot {
		t.Error("merge with empty changed accumulator")
	}
	b.Merge(a) // merging into empty copies
	if b.N != 2 || b.Mean() != 2 {
		t.Error("merge into empty failed")
	}
}

func TestMomentsReset(t *testing.T) {
	var m Moments
	m.Add(1)
	m.Reset()
	if m.N != 0 || m.Mean() != 0 {
		t.Error("reset did not clear")
	}
}

func TestMeanCI(t *testing.T) {
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i % 2) // mean 0.5, sample std ~0.5006
	}
	mean, half := MeanCI(xs, 1.96)
	if !approx(mean, 0.5, 1e-12) {
		t.Errorf("mean = %v", mean)
	}
	want := 1.96 * Summarize(xs).SampleStd() / 20
	if !approx(half, want, 1e-12) {
		t.Errorf("half = %v, want %v", half, want)
	}
	if _, h := MeanCI([]float64{1}, 1.96); h != 0 {
		t.Error("single sample CI must be 0")
	}
}

// momentsBitsEq compares two accumulators field by field at tolerance 0
// (any NaN equals any NaN: which payload an x86 add propagates depends on
// operand order, which the compiler is free to pick).
func momentsBitsEq(a, b Moments) bool {
	eq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	return a.N == b.N && eq(a.Min, b.Min) && eq(a.Max, b.Max) && eq(a.mean, b.mean) && eq(a.m2, b.m2)
}

// TestAddSliceKernelsMatchAdd pins the slice kernels to the per-observation
// recurrence bit for bit: empty and continued accumulators, runs of unequal
// length (so the interleaved prefix and every serial tail run), NaN, ±0 and
// infinities in the data.
func TestAddSliceKernelsMatchAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	special := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e300, -1e-300}
	for trial := 0; trial < 300; trial++ {
		var runs [4][]float64
		var ref, one, four [4]Moments
		for k := range runs {
			for j := rng.Intn(40); j > 0; j-- { // sometimes a continued accumulator
				x := rng.NormFloat64() * 100
				ref[k].Add(x)
				one[k].Add(x)
				four[k].Add(x)
			}
			if rng.Intn(4) == 0 {
				ref[k], one[k], four[k] = Moments{}, Moments{}, Moments{}
			}
			runs[k] = make([]float64, rng.Intn(70))
			for j := range runs[k] {
				runs[k][j] = 2000 + rng.NormFloat64()*300
				if rng.Intn(25) == 0 {
					runs[k][j] = special[rng.Intn(len(special))]
				}
			}
			for _, x := range runs[k] {
				ref[k].Add(x)
			}
			one[k].AddSlice(runs[k])
		}
		AddSlices4(&[4]*Moments{&four[0], &four[1], &four[2], &four[3]}, &runs)
		for k := range runs {
			if !momentsBitsEq(one[k], ref[k]) {
				t.Fatalf("trial %d chain %d: AddSlice %+v != Add %+v", trial, k, one[k], ref[k])
			}
			if !momentsBitsEq(four[k], ref[k]) {
				t.Fatalf("trial %d chain %d: AddSlices4 %+v != Add %+v", trial, k, four[k], ref[k])
			}
		}
	}
}

// BenchmarkWelford144Windows folds the bench archive's fleet day (144
// windows of 3840 samples) three ways; the gap between Add and AddSlices4
// is the division latency the interleaved chains hide.
func BenchmarkWelford144Windows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	runs := make([][]float64, 144)
	for i := range runs {
		runs[i] = make([]float64, 3840)
		for j := range runs[i] {
			runs[i][j] = 2000 + rng.Float64()*500
		}
	}
	ms := make([]Moments, len(runs))
	b.Run("Add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, xs := range runs {
				ms[k] = Moments{}
				for _, x := range xs {
					ms[k].Add(x)
				}
			}
		}
	})
	b.Run("AddSlice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, xs := range runs {
				ms[k] = Moments{}
				ms[k].AddSlice(xs)
			}
		}
	})
	b.Run("AddSlices4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 0; k < len(runs); k += 4 {
				ms[k], ms[k+1], ms[k+2], ms[k+3] = Moments{}, Moments{}, Moments{}, Moments{}
				AddSlices4(&[4]*Moments{&ms[k], &ms[k+1], &ms[k+2], &ms[k+3]},
					&[4][]float64{runs[k], runs[k+1], runs[k+2], runs[k+3]})
			}
		}
	})
}
