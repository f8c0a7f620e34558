package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p percent of the samples at or below
// it. NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// tailCandidates are the tail percentiles the report chooses from.
var tailCandidates = []float64{99.9, 99, 95, 90}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported as a tail: fewer, and the value is one or two outliers.
const minBeyond = 10

// supportedTail returns the highest tail percentile with at least minBeyond
// of n samples beyond it, and false when even p90 has too few (then only
// the median is reported).
func supportedTail(n int) (float64, bool) {
	for _, p := range tailCandidates {
		// The nearest-rank percentile is sample number ceil(p/100*n); the
		// epsilon keeps an exact product such as 0.9*100 from rounding up.
		if rank := int(math.Ceil(float64(n)*p/100 - 1e-9)); n-rank >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so spreads
// computed here agree with spreads computed from the printed values. It
// needs at least two samples; with fewer both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		// Like Python, delta is taken after clamping j, so very small
		// samples extrapolate beyond their extremes.
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance of xs as a share of their median,
// the run-to-run noise measure of the benchmark.
func spread(xs []float64) float64 {
	m := stats.Median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}
