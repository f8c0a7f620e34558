package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts xs. NaNs are dropped.
func NewECDF(xs []float64) *ECDF {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x), in [0, 1]. An empty ECDF returns 0.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the value at cumulative probability p in [0, 1], with
// linear interpolation between order statistics. It clamps p to [0, 1].
// An empty ECDF returns NaN.
func (e *ECDF) Quantile(p float64) float64 {
	n := len(e.sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return e.sorted[0]
	}
	if p >= 1 {
		return e.sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return e.sorted[n-1]
	}
	return e.sorted[lo]*(1-frac) + e.sorted[lo+1]*frac
}

// Curve evaluates the ECDF on a grid of k points spanning the sample range,
// returning parallel x and y slices. This is what the paper's CDF figures
// (Figure 7, Figure 10) plot. k < 2 yields a single point at the maximum.
func (e *ECDF) Curve(k int) (xs, ys []float64) {
	if len(e.sorted) == 0 {
		return nil, nil
	}
	lo, hi := e.sorted[0], e.sorted[len(e.sorted)-1]
	if k < 2 || lo == hi {
		return []float64{hi}, []float64{1}
	}
	xs = make([]float64, k)
	ys = make([]float64, k)
	step := (hi - lo) / float64(k-1)
	for i := 0; i < k; i++ {
		x := lo + float64(i)*step
		xs[i] = x
		ys[i] = e.At(x)
	}
	return xs, ys
}

// Quantile returns the p-quantile of xs without building an ECDF.
func Quantile(xs []float64, p float64) float64 {
	return NewECDF(xs).Quantile(p)
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// BoxPlot is the five-number summary plus outliers, following the
// 1.5×IQR rule the paper uses (Figure 17).
type BoxPlot struct {
	Min, Q1, Median, Q3, Max float64 // whisker ends and quartiles
	Lo, Hi                   float64 // non-outlier fence values actually attained
	Outliers                 []float64
	N                        int
}

// NewBoxPlot computes the summary for xs. NaNs are dropped.
// An empty sample returns a zero BoxPlot with N == 0.
func NewBoxPlot(xs []float64) BoxPlot {
	e := NewECDF(xs)
	n := e.N()
	if n == 0 {
		return BoxPlot{}
	}
	b := BoxPlot{
		Min:    e.sorted[0],
		Q1:     e.Quantile(0.25),
		Median: e.Quantile(0.5),
		Q3:     e.Quantile(0.75),
		Max:    e.sorted[n-1],
		N:      n,
	}
	iqr := b.Q3 - b.Q1
	loFence, hiFence := b.Q1-1.5*iqr, b.Q3+1.5*iqr
	b.Lo, b.Hi = b.Max, b.Min
	for _, x := range e.sorted {
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
			continue
		}
		if x < b.Lo {
			b.Lo = x
		}
		if x > b.Hi {
			b.Hi = x
		}
	}
	return b
}

// NonOutlierSpread returns Hi-Lo, the spread excluding outliers — the metric
// quoted in paper §6.2 (62 W power vs 15.8 °C temperature spread).
func (b BoxPlot) NonOutlierSpread() float64 {
	if b.N == 0 {
		return 0
	}
	return b.Hi - b.Lo
}
