package source

import (
	"math"
	"testing"

	"repro/internal/tsagg"
)

// TestRingDeterministic pins the federation contract that two processes
// building the ring from the same shard list compute identical ownership.
func TestRingDeterministic(t *testing.T) {
	names := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	a := NewRing(names, 0)
	b := NewRing(names, 0)
	for day := 0; day < 400; day++ {
		p := Partition{Cluster: "summit-0", Day: day}
		oa, ob := a.Owner(p), b.Owner(p)
		if oa != ob || oa < 0 || oa >= len(names) {
			t.Fatalf("day %d: owner differs across identical rings: %d vs %d", day, oa, ob)
		}
	}
}

// TestRingSpread checks the vnode layout spreads a year of partitions over
// every shard (no starving member) and that an empty ring owns nothing.
func TestRingSpread(t *testing.T) {
	names := []string{"a", "b", "c"}
	r := NewRing(names, 0)
	counts := make([]int, len(names))
	for day := 0; day < 365; day++ {
		counts[r.Owner(Partition{Cluster: "frontier-1", Day: day})]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("shard %s owns no partitions: %v", names[i], counts)
		}
	}
	empty := NewRing(nil, 0)
	if got := empty.Owner(Partition{Day: 0}); got != -1 {
		t.Fatalf("empty ring returned owner %d, want -1", got)
	}
}

// TestRingClusterSeparation: partitions of different clusters hash
// independently, so one cluster's days do not all follow another's layout.
func TestRingClusterSeparation(t *testing.T) {
	r := NewRing([]string{"s0", "s1", "s2", "s3"}, 0)
	same := 0
	const days = 200
	for day := 0; day < days; day++ {
		a := r.Owner(Partition{Cluster: "summit-0", Day: day})
		b := r.Owner(Partition{Cluster: "frontier-1", Day: day})
		if a == b {
			same++
		}
	}
	if same == days {
		t.Fatal("two clusters share the exact ownership layout; cluster is not in the hash key")
	}
}

// TestSumSeries pins the fleet-merge semantics: index-aligned summation,
// NaN treated as no contribution, misaligned grids rejected.
func TestSumSeries(t *testing.T) {
	a := tsagg.NewSeries(0, 10, 3)
	a.Vals = []float64{1, 2, math.NaN()}
	b := tsagg.NewSeries(10, 10, 3) // offset one window
	b.Vals = []float64{10, 20, 30}
	got, err := SumSeries([]*tsagg.Series{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 12, 20, 30}
	if got.Start != 0 || got.Step != 10 || len(got.Vals) != len(want) {
		t.Fatalf("merged shape: %+v", got)
	}
	for i := range want {
		if math.Float64bits(got.Vals[i]) != math.Float64bits(want[i]) {
			t.Fatalf("window %d: got %v, want %v", i, got.Vals[i], want[i])
		}
	}

	allNaN := tsagg.NewSeries(0, 10, 2)
	merged, err := SumSeries([]*tsagg.Series{allNaN})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(merged.Vals[0]) || !math.IsNaN(merged.Vals[1]) {
		t.Fatalf("windows missing everywhere must stay NaN: %v", merged.Vals)
	}

	badStep := tsagg.NewSeries(0, 30, 2)
	if _, err := SumSeries([]*tsagg.Series{a, badStep}); err == nil {
		t.Fatal("step mismatch not rejected")
	}
	misaligned := tsagg.NewSeries(5, 10, 2)
	if _, err := SumSeries([]*tsagg.Series{a, misaligned}); err == nil {
		t.Fatal("grid misalignment not rejected")
	}
	if _, err := SumSeries(nil); err == nil {
		t.Fatal("empty merge not rejected")
	}
}
