// Package dsp provides the signal-processing primitives behind the paper's
// power-dynamics analysis (§4.2): an FFT, first differencing of
// auto-correlated power series, and extraction of the dominant frequency and
// amplitude from a job's power profile.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT computes the discrete Fourier transform of x using an iterative
// radix-2 Cooley–Tukey algorithm. len(x) must be a power of two (use Pad).
// The input slice is not modified.
func FFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("dsp: FFT of empty input")
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	out := make([]complex128, n)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		out[bits.Reverse64(uint64(i))>>shift] = x[i]
	}
	// Butterfly passes.
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := -2 * math.Pi / float64(size)
		wBase := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := out[start+k]
				b := out[start+k+half] * w
				out[start+k] = a + b
				out[start+k+half] = a - b
				w *= wBase
			}
		}
	}
	return out, nil
}

// IFFT computes the inverse transform. len(x) must be a power of two.
func IFFT(x []complex128) ([]complex128, error) {
	n := len(x)
	conj := make([]complex128, n)
	for i, v := range x {
		conj[i] = cmplx.Conj(v)
	}
	y, err := FFT(conj)
	if err != nil {
		return nil, err
	}
	inv := complex(1/float64(n), 0)
	for i, v := range y {
		y[i] = cmplx.Conj(v) * inv
	}
	return y, nil
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Pad zero-pads xs to the next power-of-two length and converts to complex.
func Pad(xs []float64) []complex128 {
	n := NextPow2(len(xs))
	out := make([]complex128, n)
	for i, v := range xs {
		out[i] = complex(v, 0)
	}
	return out
}

// Diff returns the first difference xs[i+1]-xs[i]. The paper differences
// power series before the FFT because raw power is strongly auto-correlated.
// Length 0 or 1 yields an empty slice.
func Diff(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	out := make([]float64, len(xs)-1)
	for i := range out {
		out[i] = xs[i+1] - xs[i]
	}
	return out
}

// Spectrum holds a one-sided amplitude spectrum.
type Spectrum struct {
	Freqs []float64 // Hz, excluding DC
	Amps  []float64 // amplitude (2|X_k|/N), same length as Freqs
	N     int       // padded transform length
	Rate  float64   // sample rate in Hz
}

// NewSpectrum computes the one-sided amplitude spectrum of xs sampled at
// rate Hz. It zero-pads to a power of two. DC is excluded because the
// analyses care about oscillation, not offset. Returns an error for inputs
// shorter than 2 samples or non-positive rates.
func NewSpectrum(xs []float64, rate float64) (*Spectrum, error) {
	if len(xs) < 2 {
		return nil, fmt.Errorf("dsp: spectrum needs >= 2 samples, got %d", len(xs))
	}
	if rate <= 0 {
		return nil, fmt.Errorf("dsp: non-positive sample rate %v", rate)
	}
	padded := Pad(xs)
	y, err := FFT(padded)
	if err != nil {
		return nil, err
	}
	n := len(padded)
	half := n / 2
	s := &Spectrum{
		Freqs: make([]float64, half-1+n%2), // bins 1..half-1 (+Nyquist handled below)
		Amps:  make([]float64, 0, half),
		N:     n,
		Rate:  rate,
	}
	s.Freqs = s.Freqs[:0]
	for k := 1; k <= half; k++ {
		f := float64(k) * rate / float64(n)
		amp := 2 * cmplx.Abs(y[k]) / float64(len(xs))
		if k == half { // Nyquist bin is not doubled
			amp /= 2
		}
		s.Freqs = append(s.Freqs, f)
		s.Amps = append(s.Amps, amp)
	}
	return s, nil
}

// Peak returns the frequency and amplitude of the largest spectral
// component. An empty spectrum returns zeros.
func (s *Spectrum) Peak() (freq, amp float64) {
	for i, a := range s.Amps {
		if a > amp {
			amp = a
			freq = s.Freqs[i]
		}
	}
	return freq, amp
}

// DominantSwing characterizes the biggest power swing in a (power, watts)
// series sampled at rate Hz the way the paper does: difference the series,
// FFT it, and report the max-amplitude bin's frequency and amplitude.
// Series shorter than 3 samples return zeros and false.
func DominantSwing(power []float64, rate float64) (freqHz, ampW float64, ok bool) {
	d := Diff(power)
	if len(d) < 2 {
		return 0, 0, false
	}
	s, err := NewSpectrum(d, rate)
	if err != nil {
		return 0, 0, false
	}
	f, a := s.Peak()
	return f, a, true
}
