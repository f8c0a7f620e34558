package core

import (
	"math"
	"testing"
)

// testFingerprints fingerprints the shared test run.
func testFingerprints(t *testing.T) []Fingerprint {
	t.Helper()
	fps, err := BuildFingerprints(testData(t).Source())
	if err != nil {
		t.Fatal(err)
	}
	return fps
}

func TestBuildFingerprints(t *testing.T) {
	fps := testFingerprints(t)
	if len(fps) == 0 {
		t.Fatal("no fingerprints")
	}
	for _, f := range fps {
		if f.MeanPowerPerNode <= 0 || f.MaxPowerPerNode < f.MeanPowerPerNode {
			t.Fatalf("fingerprint power invalid: %+v", f)
		}
		if f.SwingFrac < 0 || f.SwingFrac > 1 {
			t.Fatalf("swing frac %v out of range", f.SwingFrac)
		}
		if f.GPUShare < 0 || f.GPUShare > 1 {
			t.Fatalf("GPU share %v out of range", f.GPUShare)
		}
		if f.Project == "" {
			t.Fatal("fingerprint without project")
		}
		v := f.Vector()
		if len(v) != 6 {
			t.Fatalf("vector dim %d", len(v))
		}
		for j, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("vector[%d] = %v", j, x)
			}
		}
	}
}

func TestClusterFingerprints(t *testing.T) {
	fps := testFingerprints(t)
	portraits, err := ClusterFingerprints(fps, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(portraits) == 0 || len(portraits) > 4 {
		t.Fatalf("portraits = %d", len(portraits))
	}
	total := 0
	for _, p := range portraits {
		if len(p.Members) == 0 {
			t.Fatal("empty portrait returned")
		}
		if len(p.Centroid) != 6 {
			t.Fatalf("centroid dim %d", len(p.Centroid))
		}
		total += len(p.Members)
	}
	if total != len(fps) {
		t.Fatalf("partition covers %d of %d fingerprints", total, len(fps))
	}
	// Determinism.
	again, err := ClusterFingerprints(fps, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(portraits) {
		t.Fatal("clustering not deterministic")
	}
	for i := range again {
		if len(again[i].Members) != len(portraits[i].Members) {
			t.Fatal("clustering not deterministic")
		}
	}
}

func TestClusterFingerprintsEdgeCases(t *testing.T) {
	if _, err := ClusterFingerprints(nil, 3, 1); err == nil {
		t.Error("empty input must error")
	}
	// k > n clamps; k < 1 clamps.
	fps := []Fingerprint{
		{MeanPowerPerNode: 500, MaxPowerPerNode: 600, Project: "A"},
		{MeanPowerPerNode: 1500, MaxPowerPerNode: 2000, Project: "B"},
	}
	for _, k := range []int{0, 1, 2, 10} {
		ps, err := ClusterFingerprints(fps, k, 1)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		total := 0
		for _, p := range ps {
			total += len(p.Members)
		}
		if total != 2 {
			t.Fatalf("k=%d: partition covers %d", k, total)
		}
	}
	// Identical points: must not loop or crash.
	same := []Fingerprint{
		{MeanPowerPerNode: 500, MaxPowerPerNode: 600},
		{MeanPowerPerNode: 500, MaxPowerPerNode: 600},
		{MeanPowerPerNode: 500, MaxPowerPerNode: 600},
	}
	if _, err := ClusterFingerprints(same, 2, 1); err != nil {
		t.Fatal(err)
	}
}

func TestClusterSeparatesObviousGroups(t *testing.T) {
	// Two well-separated archetypes must split into distinct portraits.
	var fps []Fingerprint
	for i := 0; i < 10; i++ {
		fps = append(fps, Fingerprint{
			MeanPowerPerNode: 600, MaxPowerPerNode: 700,
			GPUShare: 0.05, Project: "cpu",
		})
		fps = append(fps, Fingerprint{
			MeanPowerPerNode: 2000, MaxPowerPerNode: 2200,
			GPUShare: 0.95, Project: "gpu",
		})
	}
	ps, err := ClusterFingerprints(fps, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("portraits = %d, want 2", len(ps))
	}
	// Each cluster must be pure.
	for _, p := range ps {
		first := fps[p.Members[0]].Project
		for _, m := range p.Members {
			if fps[m].Project != first {
				t.Fatal("cluster mixes obvious groups")
			}
		}
	}
}

func TestEvaluateFingerprintPrediction(t *testing.T) {
	fps := testFingerprints(t)
	rep, err := EvaluateFingerprintPrediction(fps)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs == 0 {
		t.Fatal("no jobs evaluated")
	}
	if rep.MeanAbsErrFrac < 0 || rep.BaselineErrFrac <= 0 {
		t.Fatalf("errors: %+v", rep)
	}
	// Project portraits must beat (or at least not catastrophically lose
	// to) the global baseline: the generator ties profiles to domains.
	if rep.MeanAbsErrFrac > rep.BaselineErrFrac*1.2 {
		t.Errorf("portrait prediction (%.3f) much worse than baseline (%.3f)",
			rep.MeanAbsErrFrac, rep.BaselineErrFrac)
	}
	if _, err := EvaluateFingerprintPrediction(fps[:2]); err == nil {
		t.Error("tiny input must error")
	}
}
