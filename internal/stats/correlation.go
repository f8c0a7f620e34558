package stats

import (
	"fmt"
	"math"
)

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns an error if the lengths differ or fewer than 2 pairs exist,
// and NaN (no error) if either series is constant.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: Pearson length mismatch %d vs %d", len(x), len(y))
	}
	n := len(x)
	if n < 2 {
		return 0, fmt.Errorf("stats: Pearson needs >= 2 pairs, got %d", n)
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN(), nil
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Clamp tiny float excursions outside [-1, 1].
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r, nil
}

// PearsonPValue returns the two-sided p-value for the null hypothesis of
// zero correlation, using the exact t-transform t = r·sqrt((n-2)/(1-r²))
// with n-2 degrees of freedom. |r| == 1 returns p = 0.
func PearsonPValue(r float64, n int) float64 {
	if n <= 2 || math.IsNaN(r) {
		return math.NaN()
	}
	if math.Abs(r) >= 1 {
		return 0
	}
	df := float64(n - 2)
	t := r * math.Sqrt(df/(1-r*r))
	return StudentTTwoSidedP(t, df)
}

// CorrResult is one entry of a pairwise correlation analysis.
type CorrResult struct {
	I, J        int     // variable indices, I < J
	R           float64 // Pearson coefficient
	P           float64 // two-sided p-value
	Significant bool    // after Bonferroni correction at the family alpha
}

// PairwiseCorrelation computes Pearson r and Bonferroni-corrected
// significance for every pair of columns in vars. Each vars[k] must have the
// same length (the per-node count vectors of paper §6.1). alpha is the
// family-wise error rate (the paper uses 0.05).
func PairwiseCorrelation(vars [][]float64, alpha float64) ([]CorrResult, error) {
	k := len(vars)
	if k < 2 {
		return nil, fmt.Errorf("stats: need >= 2 variables, got %d", k)
	}
	n := len(vars[0])
	for i, v := range vars {
		if len(v) != n {
			return nil, fmt.Errorf("stats: variable %d has length %d, want %d", i, len(v), n)
		}
	}
	pairs := k * (k - 1) / 2
	threshold := alpha / float64(pairs) // Bonferroni correction
	out := make([]CorrResult, 0, pairs)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			r, err := Pearson(vars[i], vars[j])
			if err != nil {
				return nil, err
			}
			p := PearsonPValue(r, n)
			out = append(out, CorrResult{
				I: i, J: j, R: r, P: p,
				Significant: !math.IsNaN(p) && p < threshold,
			})
		}
	}
	return out, nil
}
