package stats

import (
	"fmt"
	"math"
)

// Gaussian kernel density estimation, the smoothing behind the paper's joint
// distribution figures (Figures 6 and 9) and the failure-temperature density
// plots (Figure 15).

// SilvermanBandwidth returns the rule-of-thumb bandwidth for a 1-D sample.
// Degenerate samples (constant or tiny) get a small positive floor so the
// estimator stays well-defined.
func SilvermanBandwidth(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 1
	}
	m := Summarize(xs)
	sd := m.SampleStd()
	iqr := Quantile(xs, 0.75) - Quantile(xs, 0.25)
	a := sd
	if iqr > 0 && iqr/1.34 < a {
		a = iqr / 1.34
	}
	if a <= 0 {
		return 1e-9
	}
	return 0.9 * a * math.Pow(float64(n), -0.2)
}

// KDE1D is a one-dimensional Gaussian kernel density estimator.
type KDE1D struct {
	xs []float64
	h  float64
}

// NewKDE1D builds an estimator over xs with bandwidth h; h <= 0 selects the
// Silverman rule. NaNs are dropped. An empty sample returns a zero-density
// estimator.
func NewKDE1D(xs []float64, h float64) *KDE1D {
	clean := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			clean = append(clean, x)
		}
	}
	if h <= 0 {
		h = SilvermanBandwidth(clean)
	}
	return &KDE1D{xs: clean, h: h}
}

// At evaluates the density estimate at x.
func (k *KDE1D) At(x float64) float64 {
	n := len(k.xs)
	if n == 0 {
		return 0
	}
	inv := 1 / k.h
	norm := inv / math.Sqrt(2*math.Pi) / float64(n)
	s := 0.0
	for _, xi := range k.xs {
		u := (x - xi) * inv
		s += math.Exp(-0.5 * u * u)
	}
	return s * norm
}

// Curve evaluates the density on a k-point grid spanning the sample range
// extended by 3 bandwidths each side.
func (k *KDE1D) Curve(points int) (xs, ys []float64) {
	if len(k.xs) == 0 || points < 2 {
		return nil, nil
	}
	lo, hi := k.xs[0], k.xs[0]
	for _, x := range k.xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	lo -= 3 * k.h
	hi += 3 * k.h
	xs = make([]float64, points)
	ys = make([]float64, points)
	step := (hi - lo) / float64(points-1)
	for i := range xs {
		xs[i] = lo + float64(i)*step
		ys[i] = k.At(xs[i])
	}
	return xs, ys
}

// KDE2D is a two-dimensional Gaussian product-kernel density estimator
// evaluated on a regular grid, matching the joint kde-plots of Figures 6/9.
type KDE2D struct {
	xs, ys []float64
	hx, hy float64
}

// NewKDE2D builds a 2-D estimator. Pair lengths must match; pairs with any
// NaN are dropped. Non-positive bandwidths select the Silverman rule per
// axis.
func NewKDE2D(xs, ys []float64, hx, hy float64) (*KDE2D, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: KDE2D length mismatch %d vs %d", len(xs), len(ys))
	}
	cx := make([]float64, 0, len(xs))
	cy := make([]float64, 0, len(ys))
	for i := range xs {
		if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) {
			continue
		}
		cx = append(cx, xs[i])
		cy = append(cy, ys[i])
	}
	if hx <= 0 {
		hx = SilvermanBandwidth(cx)
	}
	if hy <= 0 {
		hy = SilvermanBandwidth(cy)
	}
	return &KDE2D{xs: cx, ys: cy, hx: hx, hy: hy}, nil
}

// At evaluates the joint density at (x, y).
func (k *KDE2D) At(x, y float64) float64 {
	n := len(k.xs)
	if n == 0 {
		return 0
	}
	invx, invy := 1/k.hx, 1/k.hy
	norm := invx * invy / (2 * math.Pi * float64(n))
	s := 0.0
	for i := 0; i < n; i++ {
		ux := (x - k.xs[i]) * invx
		uy := (y - k.ys[i]) * invy
		s += math.Exp(-0.5 * (ux*ux + uy*uy))
	}
	return s * norm
}

// Grid2D is a density surface sampled on a regular grid.
type Grid2D struct {
	X0, X1, Y0, Y1 float64     // bounds
	Z              [][]float64 // Z[iy][ix]
}

// Grid evaluates the density on an nx × ny grid spanning the data extended
// by 3 bandwidths. Empty estimators return a nil grid.
func (k *KDE2D) Grid(nx, ny int) *Grid2D {
	if len(k.xs) == 0 || nx < 2 || ny < 2 {
		return nil
	}
	x0, x1 := minMax(k.xs)
	y0, y1 := minMax(k.ys)
	x0 -= 3 * k.hx
	x1 += 3 * k.hx
	y0 -= 3 * k.hy
	y1 += 3 * k.hy
	g := &Grid2D{X0: x0, X1: x1, Y0: y0, Y1: y1, Z: make([][]float64, ny)}
	dx := (x1 - x0) / float64(nx-1)
	dy := (y1 - y0) / float64(ny-1)
	for iy := 0; iy < ny; iy++ {
		row := make([]float64, nx)
		y := y0 + float64(iy)*dy
		for ix := 0; ix < nx; ix++ {
			row[ix] = k.At(x0+float64(ix)*dx, y)
		}
		g.Z[iy] = row
	}
	return g
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Modes returns local maxima of the grid with density at least minFrac of
// the global maximum — the "high-density regions" the paper describes for
// the multi-modal small-class distributions (Figure 6).
func (g *Grid2D) Modes(minFrac float64) []struct{ X, Y, Density float64 } {
	if g == nil {
		return nil
	}
	max := 0.0
	for _, row := range g.Z {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	ny := len(g.Z)
	if ny == 0 {
		return nil
	}
	nx := len(g.Z[0])
	dx := (g.X1 - g.X0) / float64(nx-1)
	dy := (g.Y1 - g.Y0) / float64(ny-1)
	var out []struct{ X, Y, Density float64 }
	for iy := 1; iy < ny-1; iy++ {
		for ix := 1; ix < nx-1; ix++ {
			v := g.Z[iy][ix]
			if v < minFrac*max {
				continue
			}
			if v >= g.Z[iy-1][ix] && v >= g.Z[iy+1][ix] &&
				v >= g.Z[iy][ix-1] && v >= g.Z[iy][ix+1] &&
				v > g.Z[iy-1][ix-1] && v > g.Z[iy+1][ix+1] {
				out = append(out, struct{ X, Y, Density float64 }{
					X: g.X0 + float64(ix)*dx, Y: g.Y0 + float64(iy)*dy, Density: v,
				})
			}
		}
	}
	return out
}
