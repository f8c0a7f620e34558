package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFFTKnownValues(t *testing.T) {
	// FFT of [1,1,1,1] = [4,0,0,0].
	y, err := FFT([]complex128{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{4, 0, 0, 0}
	for i := range want {
		if cmplx.Abs(y[i]-want[i]) > 1e-12 {
			t.Errorf("bin %d = %v, want %v", i, y[i], want[i])
		}
	}
	// FFT of delta [1,0,0,0] = all ones.
	y, _ = FFT([]complex128{1, 0, 0, 0})
	for i := range y {
		if cmplx.Abs(y[i]-1) > 1e-12 {
			t.Errorf("delta bin %d = %v, want 1", i, y[i])
		}
	}
}

func TestFFTErrors(t *testing.T) {
	if _, err := FFT(nil); err == nil {
		t.Error("empty FFT must error")
	}
	if _, err := FFT(make([]complex128, 3)); err == nil {
		t.Error("non-power-of-two FFT must error")
	}
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	orig := append([]complex128(nil), x...)
	if _, err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("FFT mutated its input")
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	f := func(raw []float64) bool {
		n := NextPow2(len(raw) + 1)
		x := make([]complex128, n)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			x[i] = complex(math.Mod(v, 1e6), 0)
		}
		y, err := FFT(x)
		if err != nil {
			return false
		}
		back, err := IFFT(y)
		if err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(back[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFFTParseval(t *testing.T) {
	// sum |x|² = (1/N) sum |X|².
	f := func(raw []float64) bool {
		n := NextPow2(len(raw) + 1)
		x := make([]complex128, n)
		var timeE float64
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			v = math.Mod(v, 1e4)
			x[i] = complex(v, 0)
			timeE += v * v
		}
		y, err := FFT(x)
		if err != nil {
			return false
		}
		var freqE float64
		for _, v := range y {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		freqE /= float64(n)
		return approx(timeE, freqE, 1e-6*math.Max(1, timeE))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	a := []complex128{1, 2, 3, 4, 5, 6, 7, 8}
	b := []complex128{8, 1, -2, 0.5, 3, -1, 4, 2}
	sum := make([]complex128, 8)
	for i := range sum {
		sum[i] = 2*a[i] + 3*b[i]
	}
	ya, _ := FFT(a)
	yb, _ := FFT(b)
	ysum, _ := FFT(sum)
	for i := range ysum {
		want := 2*ya[i] + 3*yb[i]
		if cmplx.Abs(ysum[i]-want) > 1e-9 {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := [][2]int{{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024}, {1025, 2048}}
	for _, c := range cases {
		if got := NextPow2(c[0]); got != c[1] {
			t.Errorf("NextPow2(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestDiff(t *testing.T) {
	if got := Diff([]float64{1, 4, 9, 16}); len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 7 {
		t.Errorf("Diff = %v", got)
	}
	if Diff([]float64{1}) != nil || Diff(nil) != nil {
		t.Error("short Diff must be nil")
	}
}

func TestSpectrumPureTone(t *testing.T) {
	// 0.05 Hz sine sampled at 1 Hz for 512 samples: peak at 0.05 Hz with
	// amplitude ≈ 3 (bin-aligned: 512 samples, 0.05·512 = 25.6 — use an
	// aligned frequency 26/512 instead for an exact check).
	n := 512
	freq := 26.0 / float64(n)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 3 * math.Sin(2*math.Pi*freq*float64(i))
	}
	s, err := NewSpectrum(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	pf, pa := s.Peak()
	if !approx(pf, freq, 1e-12) {
		t.Errorf("peak freq = %v, want %v", pf, freq)
	}
	if !approx(pa, 3, 1e-9) {
		t.Errorf("peak amp = %v, want 3", pa)
	}
}

func TestSpectrumExcludesDC(t *testing.T) {
	// Constant signal: all oscillatory bins ~0; peak amplitude ~0.
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = 100
	}
	s, err := NewSpectrum(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Padding introduces a step, so some leakage exists, but the DC bin
	// itself must not be present: lowest frequency > 0.
	if s.Freqs[0] <= 0 {
		t.Errorf("lowest freq = %v, must exclude DC", s.Freqs[0])
	}
}

func TestSpectrumErrors(t *testing.T) {
	if _, err := NewSpectrum([]float64{1}, 1); err == nil {
		t.Error("short input must error")
	}
	if _, err := NewSpectrum([]float64{1, 2}, 0); err == nil {
		t.Error("zero rate must error")
	}
	if _, err := NewSpectrum([]float64{1, 2}, -1); err == nil {
		t.Error("negative rate must error")
	}
}

func TestDominantSwing(t *testing.T) {
	// Sinusoidal power swing near the paper's canonical 0.005 Hz
	// (200-second period), sampled at 0.1 Hz (10 s bins). Differencing a
	// sine preserves its frequency, so the dominant bin must land there.
	n := 1024
	want := 51.0 * 0.1 / float64(n) // bin-aligned ≈ 0.00498 Hz
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 7e6 + 2e6*math.Sin(2*math.Pi*want*float64(i)/0.1)
	}
	f, a, ok := DominantSwing(xs, 0.1)
	if !ok {
		t.Fatal("DominantSwing failed")
	}
	if !approx(f, 0.005, 0.0008) {
		t.Errorf("dominant freq = %v, want ≈0.005", f)
	}
	if a <= 0 {
		t.Errorf("amplitude = %v, want positive", a)
	}
	if _, _, ok := DominantSwing([]float64{1, 2}, 1); ok {
		t.Error("too-short series must return ok=false")
	}
}

func BenchmarkFFT4096(b *testing.B) {
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)/7), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FFT(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDominantSwing(b *testing.B) {
	xs := make([]float64, 2048)
	for i := range xs {
		xs[i] = 5e6 + 2e6*math.Sin(2*math.Pi*float64(i)/20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = DominantSwing(xs, 0.1)
	}
}
