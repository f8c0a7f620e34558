// Package stats implements the statistical machinery behind the paper's
// analyses: streaming moments, empirical CDFs, quantiles and box-plot
// summaries, histograms, Gaussian kernel density estimation in one and two
// dimensions, Pearson correlation with exact t-distribution p-values, the
// Bonferroni correction, z-scores, and confidence intervals.
package stats

import "math"

// Moments accumulates count, min, max, mean and variance in a single pass
// using Welford's algorithm. The zero value is ready to use. This is the
// statistic tuple stored for every 10-second telemetry window (paper §3).
type Moments struct {
	N        int64
	Min, Max float64
	mean, m2 float64
}

// Add incorporates one observation.
func (m *Moments) Add(x float64) {
	m.N++
	if m.N == 1 {
		m.Min, m.Max = x, x
	} else {
		if x < m.Min {
			m.Min = x
		}
		if x > m.Max {
			m.Max = x
		}
	}
	d := x - m.mean
	m.mean += d / float64(m.N)
	m.m2 += d * (x - m.mean)
}

// Merge combines another accumulator into m (parallel merge, Chan et al.).
func (m *Moments) Merge(o Moments) {
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		*m = o
		return
	}
	if o.Min < m.Min {
		m.Min = o.Min
	}
	if o.Max > m.Max {
		m.Max = o.Max
	}
	n := float64(m.N + o.N)
	d := o.mean - m.mean
	m.m2 += o.m2 + d*d*float64(m.N)*float64(o.N)/n
	m.mean += d * float64(o.N) / n
	m.N += o.N
}

// Mean returns the running mean, or 0 for an empty accumulator.
func (m Moments) Mean() float64 { return m.mean }

// Variance returns the population variance, or 0 with fewer than 1 sample.
func (m Moments) Variance() float64 {
	if m.N < 1 {
		return 0
	}
	return m.m2 / float64(m.N)
}

// SampleVariance returns the Bessel-corrected variance, or 0 with fewer than
// 2 samples.
func (m Moments) SampleVariance() float64 {
	if m.N < 2 {
		return 0
	}
	return m.m2 / float64(m.N-1)
}

// Std returns the population standard deviation.
func (m Moments) Std() float64 { return math.Sqrt(m.Variance()) }

// SampleStd returns the sample standard deviation.
func (m Moments) SampleStd() float64 { return math.Sqrt(m.SampleVariance()) }

// Sum returns the observation total.
func (m Moments) Sum() float64 { return m.mean * float64(m.N) }

// Reset clears the accumulator for reuse.
func (m *Moments) Reset() { *m = Moments{} }

// State exposes the accumulator's raw fields — count, min, max, running
// mean, and the Welford second moment M2 — so it can be persisted and later
// reconstructed exactly (see MomentsFromState). The pre-aggregate store
// depends on this round trip being bitwise lossless.
func (m Moments) State() (n int64, mn, mx, mean, m2 float64) {
	return m.N, m.Min, m.Max, m.mean, m.m2
}

// MomentsFromState rebuilds an accumulator from persisted state. The result
// is bit-identical to the accumulator State was read from.
func MomentsFromState(n int64, mn, mx, mean, m2 float64) Moments {
	return Moments{N: n, Min: mn, Max: mx, mean: mean, m2: m2}
}

// Summarize computes Moments over a slice in one call.
func Summarize(xs []float64) Moments {
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	return m
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanCI returns the mean of xs and the half-width of its normal-theory
// confidence interval at the given z (1.96 ⇒ 95%), used by the snapshot
// superposition plots (paper Figures 11–12).
func MeanCI(xs []float64, z float64) (mean, half float64) {
	m := Summarize(xs)
	if m.N < 2 {
		return m.Mean(), 0
	}
	return m.Mean(), z * m.SampleStd() / math.Sqrt(float64(m.N))
}

// AddSlice incorporates xs in order. The result is bit-identical to calling
// Add once per element (NaN payloads aside): the same Welford recurrence in
// the same order, with the accumulator held in registers across the run
// instead of re-read from memory per observation.
//
//lint:allocfree
func (m *Moments) AddSlice(xs []float64) {
	if len(xs) == 0 {
		return
	}
	if m.N == 0 {
		m.Add(xs[0])
		xs = xs[1:]
	}
	n, mn, mx, mean, m2 := float64(m.N), m.Min, m.Max, m.mean, m.m2
	for _, x := range xs {
		n++
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
		d := x - mean
		mean += d / n
		m2 += d * (x - mean)
	}
	m.N += int64(len(xs))
	m.Min, m.Max, m.mean, m.m2 = mn, mx, mean, m2
}

// AddSlices4 folds four independent runs into four distinct accumulators,
// ms[k] receiving xs[k]. Each accumulator ends bit-identical to
// ms[k].AddSlice(xs[k]); the four Welford chains advance side by side so
// their divisions overlap instead of queueing behind one another (a single
// chain is latency-bound on d/n). The accumulators must not alias.
//
//lint:allocfree
func AddSlices4(ms *[4]*Moments, xs *[4][]float64) {
	a, b, c, d := ms[0], ms[1], ms[2], ms[3]
	xa, xb, xc, xd := seed(a, xs[0]), seed(b, xs[1]), seed(c, xs[2]), seed(d, xs[3])
	k := min(len(xa), len(xb), len(xc), len(xd))
	an, amn, amx, amean, am2 := float64(a.N), a.Min, a.Max, a.mean, a.m2
	bn, bmn, bmx, bmean, bm2 := float64(b.N), b.Min, b.Max, b.mean, b.m2
	cn, cmn, cmx, cmean, cm2 := float64(c.N), c.Min, c.Max, c.mean, c.m2
	dn, dmn, dmx, dmean, dm2 := float64(d.N), d.Min, d.Max, d.mean, d.m2
	ya, yb, yc, yd := xa[:k], xb[:k], xc[:k], xd[:k]
	for i, x := range ya {
		an++
		if x < amn {
			amn = x
		}
		if x > amx {
			amx = x
		}
		e := x - amean
		amean += e / an
		am2 += e * (x - amean)

		x = yb[i]
		bn++
		if x < bmn {
			bmn = x
		}
		if x > bmx {
			bmx = x
		}
		e = x - bmean
		bmean += e / bn
		bm2 += e * (x - bmean)

		x = yc[i]
		cn++
		if x < cmn {
			cmn = x
		}
		if x > cmx {
			cmx = x
		}
		e = x - cmean
		cmean += e / cn
		cm2 += e * (x - cmean)

		x = yd[i]
		dn++
		if x < dmn {
			dmn = x
		}
		if x > dmx {
			dmx = x
		}
		e = x - dmean
		dmean += e / dn
		dm2 += e * (x - dmean)
	}
	n := int64(k)
	a.N, a.Min, a.Max, a.mean, a.m2 = a.N+n, amn, amx, amean, am2
	b.N, b.Min, b.Max, b.mean, b.m2 = b.N+n, bmn, bmx, bmean, bm2
	c.N, c.Min, c.Max, c.mean, c.m2 = c.N+n, cmn, cmx, cmean, cm2
	d.N, d.Min, d.Max, d.mean, d.m2 = d.N+n, dmn, dmx, dmean, dm2
	a.AddSlice(xa[k:])
	b.AddSlice(xb[k:])
	c.AddSlice(xc[k:])
	d.AddSlice(xd[k:])
}

// seed gives an empty accumulator its first observation (the N == 1 branch
// of Add) and returns the rest of the run, so the interleaved loop needs no
// first-element test.
func seed(m *Moments, xs []float64) []float64 {
	if m.N == 0 && len(xs) > 0 {
		m.Add(xs[0])
		return xs[1:]
	}
	return xs
}
