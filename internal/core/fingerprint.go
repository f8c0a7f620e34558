package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dsp"
	"repro/internal/rng"
	"repro/internal/source"
	"repro/internal/stats"
)

// This file implements the paper's §9 future-work proposal: job
// power-profile fingerprinting. Each job's power series is reduced to a
// fixed feature vector; fingerprints cluster into portraits (k-means);
// queued jobs assume the portrait of their project, giving a simple
// predictive model for job max power that the paper argues must
// supplement pure history-based prediction.

// Fingerprint is one job's power-profile feature vector.
type Fingerprint struct {
	AllocIdx int
	Project  string
	// Features (all per-node-normalized so system size cancels):
	MeanPowerPerNode float64 // W
	MaxPowerPerNode  float64 // W
	SwingFrac        float64 // (max-mean)/max in [0, 1]
	DominantFreqHz   float64
	DominantAmpFrac  float64 // FFT amplitude / mean power
	GPUShare         float64 // GPU / (GPU + CPU) mean component power
}

// Vector returns the normalized feature vector used for clustering.
func (f *Fingerprint) Vector() []float64 {
	return []float64{
		f.MeanPowerPerNode / 2300, // node max power normalizes
		f.MaxPowerPerNode / 2300,
		f.SwingFrac,
		f.DominantFreqHz / 0.05, // Nyquist of the 10s grid
		math.Min(1, f.DominantAmpFrac),
		f.GPUShare,
	}
}

// BuildFingerprints extracts a fingerprint from every job with enough
// observations (>= 3 windows); the component share comes from the job's
// record.
func BuildFingerprints(src source.RunSource) ([]Fingerprint, error) {
	allocs, series, step, err := jobPowerSeries(src)
	if err != nil {
		return nil, err
	}
	recs, err := src.JobRecords()
	if err != nil {
		return nil, err
	}
	recOf := make(map[int64]*source.JobRecord, len(recs))
	for i := range recs {
		recOf[recs[i].AllocationID] = &recs[i]
	}
	var out []Fingerprint
	rate := 1.0 / float64(step)
	for i := range allocs {
		a := &allocs[i]
		s, ok := series[a.AllocationID]
		if !ok {
			continue
		}
		vals := s.Clean()
		if len(vals) < 3 {
			continue
		}
		rec, ok := recOf[a.AllocationID]
		if !ok {
			return nil, fmt.Errorf("core: job %d has power windows but no %s row", a.AllocationID, source.DatasetJobRecords)
		}
		m := stats.Summarize(vals)
		nodes := float64(a.Nodes)
		fp := Fingerprint{
			AllocIdx:         i,
			Project:          a.Project,
			MeanPowerPerNode: m.Mean() / nodes,
			MaxPowerPerNode:  m.Max / nodes,
		}
		if m.Max > 0 {
			fp.SwingFrac = (m.Max - m.Mean()) / m.Max
		}
		if f, amp, ok := dsp.DominantSwing(vals, rate); ok {
			fp.DominantFreqHz = f
			if m.Mean() > 0 {
				fp.DominantAmpFrac = amp / m.Mean()
			}
		}
		if gpu, cpu := rec.MeanGPUPowerW, rec.MeanCPUPowerW; gpu+cpu > 0 {
			fp.GPUShare = gpu / (gpu + cpu)
		}
		out = append(out, fp)
	}
	return out, nil
}

// Portrait is one cluster of fingerprints: a centroid and its members.
type Portrait struct {
	Centroid []float64
	Members  []int // indices into the fingerprint slice
}

// ClusterFingerprints groups fingerprints into k portraits with k-means
// (k-means++ seeding, deterministic in seed). k is clamped to the number
// of fingerprints; fewer than 1 fingerprints yields an error.
func ClusterFingerprints(fps []Fingerprint, k int, seed uint64) ([]Portrait, error) {
	n := len(fps)
	if n == 0 {
		return nil, fmt.Errorf("core: no fingerprints to cluster")
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	vecs := make([][]float64, n)
	for i := range fps {
		vecs[i] = fps[i].Vector()
	}
	dim := len(vecs[0])
	rs := rng.New(seed)
	// k-means++ seeding.
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, clone(vecs[rs.IntN(n)]))
	for len(centroids) < k {
		weights := make([]float64, n)
		total := 0.0
		for i, v := range vecs {
			d := math.Inf(1)
			for _, c := range centroids {
				d = math.Min(d, sqDist(v, c))
			}
			weights[i] = d
			total += d
		}
		if total == 0 {
			// All points coincide with centroids; duplicate one.
			centroids = append(centroids, clone(vecs[rs.IntN(n)]))
			continue
		}
		centroids = append(centroids, clone(vecs[rs.Categorical(weights)]))
	}
	assign := make([]int, n)
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i, v := range vecs {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if d := sqDist(v, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, v := range vecs {
			counts[assign[i]]++
			for j := range v {
				sums[assign[i]][j] += v[j]
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue // keep the old centroid for empty clusters
			}
			for j := range centroids[c] {
				centroids[c][j] = sums[c][j] / float64(counts[c])
			}
		}
		if !changed {
			break
		}
	}
	portraits := make([]Portrait, k)
	for c := range portraits {
		portraits[c].Centroid = centroids[c]
	}
	for i, c := range assign {
		portraits[c].Members = append(portraits[c].Members, i)
	}
	// Drop empty portraits for a clean result.
	out := portraits[:0]
	for _, p := range portraits {
		if len(p.Members) > 0 {
			out = append(out, p)
		}
	}
	return out, nil
}

func clone(v []float64) []float64 { return append([]float64(nil), v...) }

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// PredictionReport evaluates the fingerprint-based max-power predictor:
// each job's max power-per-node is predicted from the mean of OTHER jobs
// in the same project (leave-one-out), falling back to the global mean.
type PredictionReport struct {
	Jobs int
	// MeanAbsErrFrac is mean |predicted−actual| / actual.
	MeanAbsErrFrac float64
	// BaselineErrFrac is the same error using the global mean for every
	// job (what pure history-free prediction achieves).
	BaselineErrFrac float64
	// Improvement is 1 − MeanAbsErrFrac/BaselineErrFrac.
	Improvement float64
}

// EvaluateFingerprintPrediction measures how much project-level power
// portraits improve max-power prediction over a global baseline — the
// quantitative backbone of the paper's future-work proposal.
func EvaluateFingerprintPrediction(fps []Fingerprint) (*PredictionReport, error) {
	if len(fps) < 3 {
		return nil, fmt.Errorf("core: need >= 3 fingerprints, got %d", len(fps))
	}
	bySorted := make([]Fingerprint, len(fps))
	copy(bySorted, fps)
	sort.Slice(bySorted, func(i, j int) bool { return bySorted[i].AllocIdx < bySorted[j].AllocIdx })
	// Project sums for leave-one-out means.
	projSum := map[string]float64{}
	projN := map[string]int{}
	var globalSum float64
	for _, f := range bySorted {
		projSum[f.Project] += f.MaxPowerPerNode
		projN[f.Project]++
		globalSum += f.MaxPowerPerNode
	}
	globalMean := globalSum / float64(len(bySorted))
	var errSum, baseSum float64
	n := 0
	for _, f := range bySorted {
		if f.MaxPowerPerNode <= 0 {
			continue
		}
		var pred float64
		if projN[f.Project] > 1 {
			pred = (projSum[f.Project] - f.MaxPowerPerNode) / float64(projN[f.Project]-1)
		} else {
			pred = (globalSum - f.MaxPowerPerNode) / float64(len(bySorted)-1)
		}
		errSum += math.Abs(pred-f.MaxPowerPerNode) / f.MaxPowerPerNode
		baseSum += math.Abs(globalMean-f.MaxPowerPerNode) / f.MaxPowerPerNode
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("core: no jobs with positive max power")
	}
	rep := &PredictionReport{
		Jobs:            n,
		MeanAbsErrFrac:  errSum / float64(n),
		BaselineErrFrac: baseSum / float64(n),
	}
	if rep.BaselineErrFrac > 0 {
		rep.Improvement = 1 - rep.MeanAbsErrFrac/rep.BaselineErrFrac
	}
	return rep, nil
}
