package core

import (
	"math"

	"repro/internal/stats"
	"repro/internal/tsagg"
	"repro/internal/units"
)

// Edge is one detected rising or falling power edge (paper §4.2).
type Edge struct {
	// StartIdx is the series index of the last pre-edge window; the edge
	// occurs between StartIdx and EndIdx.
	StartIdx int
	EndIdx   int
	T        int64 // timestamp of the edge (first post-threshold window)
	Rising   bool
	// AmplitudeW is the total power change across the merged edge.
	AmplitudeW float64
	// DurationSec is the paper's edge duration: time from the edge start
	// until power has returned 80 % of the way from its peak back to the
	// pre-edge level. -1 when the series ends first.
	DurationSec int64
}

// DetectEdges finds edges in a power series using the paper's definition:
// a change of at least 868 W × nodes over one coarsening interval.
// Consecutive same-direction threshold crossings merge into a single edge.
// NaN slots break any in-progress edge.
func DetectEdges(s *tsagg.Series, nodes int) []Edge {
	if nodes <= 0 {
		return nil
	}
	return DetectEdgesThreshold(s, float64(units.EdgeThresholdPerNode)*float64(nodes))
}

// DetectEdgesThreshold is DetectEdges with an explicit absolute threshold
// in watts, used by the cluster-level snapshot analyses whose amplitude
// classes are defined in (scale-equivalent) megawatts rather than per-node
// terms.
func DetectEdgesThreshold(s *tsagg.Series, threshold float64) []Edge {
	if s == nil || s.Len() < 2 || threshold <= 0 {
		return nil
	}
	var edges []Edge
	i := 1
	for i < s.Len() {
		prev, cur := s.Vals[i-1], s.Vals[i]
		if math.IsNaN(prev) || math.IsNaN(cur) {
			i++
			continue
		}
		d := cur - prev
		if math.Abs(d) < threshold {
			i++
			continue
		}
		rising := d > 0
		start := i - 1
		amp := d
		// Merge subsequent same-direction crossings.
		j := i + 1
		for j < s.Len() && !math.IsNaN(s.Vals[j]) {
			dj := s.Vals[j] - s.Vals[j-1]
			if math.Abs(dj) < threshold || (dj > 0) != rising {
				break
			}
			amp += dj
			j++
		}
		e := Edge{
			StartIdx:   start,
			EndIdx:     j - 1,
			T:          s.TimeAt(j - 1),
			Rising:     rising,
			AmplitudeW: amp,
		}
		e.DurationSec = edgeDuration(s, e)
		edges = append(edges, e)
		i = j
	}
	return edges
}

// edgeDuration implements the paper's duration definition for an edge:
// follow the series past the edge, find the extreme (peak for rising,
// trough for falling), and report the time from the edge start until the
// value has come back 80 % of the way from that extreme toward the
// pre-edge level. Returns -1 when the series ends before the return.
func edgeDuration(s *tsagg.Series, e Edge) int64 {
	base := s.Vals[e.StartIdx]
	extreme := s.Vals[e.EndIdx]
	for k := e.EndIdx; k < s.Len(); k++ {
		v := s.Vals[k]
		if math.IsNaN(v) {
			continue
		}
		if e.Rising && v > extreme {
			extreme = v
		}
		if !e.Rising && v < extreme {
			extreme = v
		}
		// Return threshold recomputed against the running extreme.
		ret := extreme - 0.8*(extreme-base)
		if (e.Rising && v <= ret) || (!e.Rising && v >= ret) {
			return s.TimeAt(k) - s.TimeAt(e.StartIdx)
		}
	}
	return -1
}

// FilterEdges returns the subset of edges matching rising and, when
// minAmpW > 0, with |amplitude| >= minAmpW.
func FilterEdges(edges []Edge, rising bool, minAmpW float64) []Edge {
	var out []Edge
	for _, e := range edges {
		if e.Rising != rising {
			continue
		}
		if minAmpW > 0 && math.Abs(e.AmplitudeW) < minAmpW {
			continue
		}
		out = append(out, e)
	}
	return out
}

// BinEdges groups edges of the requested direction into amplitude bins of
// the given width in watts; bin k holds |amplitude| in [k·w, (k+1)·w).
// Sub-bin-1 edges are dropped.
func BinEdges(edges []Edge, binW float64, rising bool) map[int][]Edge {
	out := map[int][]Edge{}
	if binW <= 0 {
		return out
	}
	for _, e := range edges {
		if e.Rising != rising {
			continue
		}
		bin := int(math.Abs(e.AmplitudeW) / binW)
		if bin < 1 {
			continue
		}
		out[bin] = append(out[bin], e)
	}
	return out
}

// ScaleEquivalentMW returns the watts that correspond to 1 MW at full
// Summit scale for a system of the given node count — the amplitude-bin
// width used by the scaled Figure 11/12 analyses.
func ScaleEquivalentMW(nodes int) float64 {
	return units.WattsPerMW * float64(nodes) / float64(units.SummitNodes)
}

// SnapshotStack is a set of series windows superimposed and aligned at
// their edges, with per-offset mean and 95 % confidence half-width — the
// construction behind the paper's Figures 11 and 12.
type SnapshotStack struct {
	OffsetSec []int64 // offset from the edge, negative = before
	Mean      []float64
	CIHalf    []float64
	Count     int // number of superimposed snapshots
}

// SuperimposeAround extracts [t-beforeSec, t+afterSec] windows of s around
// each time in times, aligns them, and reduces each offset across
// snapshots to mean ± 1.96·SE. Offsets with no data are NaN.
func SuperimposeAround(s *tsagg.Series, times []int64, beforeSec, afterSec int64) *SnapshotStack {
	if s == nil || len(times) == 0 || s.Step <= 0 {
		return nil
	}
	nBefore := int(beforeSec / s.Step)
	nAfter := int(afterSec / s.Step)
	width := nBefore + nAfter + 1
	stack := &SnapshotStack{
		OffsetSec: make([]int64, width),
		Mean:      make([]float64, width),
		CIHalf:    make([]float64, width),
		Count:     len(times),
	}
	cols := make([][]float64, width)
	for k := 0; k < width; k++ {
		stack.OffsetSec[k] = int64(k-nBefore) * s.Step
	}
	for _, t := range times {
		for k := 0; k < width; k++ {
			v := s.At(t + stack.OffsetSec[k])
			if !math.IsNaN(v) {
				cols[k] = append(cols[k], v)
			}
		}
	}
	for k := 0; k < width; k++ {
		if len(cols[k]) == 0 {
			stack.Mean[k] = math.NaN()
			stack.CIHalf[k] = math.NaN()
			continue
		}
		stack.Mean[k], stack.CIHalf[k] = stats.MeanCI(cols[k], 1.96)
	}
	return stack
}

// EdgeTimes extracts the alignment timestamps of a set of edges.
func EdgeTimes(edges []Edge) []int64 {
	out := make([]int64, len(edges))
	for i, e := range edges {
		out[i] = e.T
	}
	return out
}
