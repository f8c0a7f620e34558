package source

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tsagg"
)

// TestFleetManifestRoundTrip pins the fleet.json contract.
func TestFleetManifestRoundTrip(t *testing.T) {
	root := t.TempDir()
	m := FleetManifest{Clusters: []FleetEntry{
		{Name: "summit-0", Site: "summit", Nodes: 128, Dir: "summit-0"},
		{Name: "frontier-1", Site: "frontier", Nodes: 256, Dir: "frontier-1"},
	}}
	if err := WriteFleetManifest(root, m); err != nil {
		t.Fatal(err)
	}
	got, err := DiscoverFleet(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Clusters) != 2 || got.Clusters[0] != m.Clusters[0] || got.Clusters[1] != m.Clusters[1] {
		t.Fatalf("manifest round trip: %+v", got)
	}
	if want := filepath.Join(root, "summit-0"); got.Clusters[0].Path(root) != want {
		t.Fatalf("Path: %q, want %q", got.Clusters[0].Path(root), want)
	}
}

// TestDiscoverFleetScan: fleet.json is a fleet's only declaration. A root
// without one is not a fleet, whatever its subdirectories hold, and a
// manifest that names a cluster "" or twice is refused, naming the file.
func TestDiscoverFleetScan(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"beta", "alpha"} {
		dir := filepath.Join(root, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		f := filepath.Join(dir, DatasetClusterPower+"-day00000.spwr")
		if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := DiscoverFleet(root); !errors.Is(err, ErrNotFleet) {
		t.Fatalf("cluster subdirectories without %s: %v, want ErrNotFleet", FleetManifestName, err)
	}
	if _, err := DiscoverFleet(t.TempDir()); !errors.Is(err, ErrNotFleet) {
		t.Fatalf("plain dir: %v, want ErrNotFleet", err)
	}

	for _, names := range [][]string{{"alpha", "beta", "alpha"}, {"alpha", ""}} {
		var m FleetManifest
		for _, name := range names {
			m.Clusters = append(m.Clusters, FleetEntry{Name: name, Dir: name})
		}
		if err := WriteFleetManifest(root, m); err != nil {
			t.Fatal(err)
		}
		_, err := DiscoverFleet(root)
		if err == nil || errors.Is(err, ErrNotFleet) || !strings.Contains(err.Error(), filepath.Join(root, FleetManifestName)) {
			t.Errorf("clusters %q: %v, want an error naming %s", names, err, FleetManifestName)
		}
	}
}

// FuzzDiscoverFleet holds fleet.json decoding to its rules: any bytes give
// either a manifest listing at least one cluster, each named once and not
// "", or an error naming the file.
func FuzzDiscoverFleet(f *testing.F) {
	f.Add([]byte(`{"clusters":[{"name":"summit-0","site":"summit","nodes":36,"dir":"summit-0"},{"name":"frontier-1","site":"frontier","nodes":36,"dir":"frontier-1"}]}`))
	f.Add([]byte(`{"clusters":[{"name":"a","dir":"a"},{"name":"a","dir":"b"}]}`))
	f.Add([]byte(`{"clusters":[{"dir":"a"}]}`))
	f.Add([]byte(`{"clusters":[]}`))
	f.Add([]byte(`{"clusters":null}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, b []byte) {
		root := t.TempDir()
		path := filepath.Join(root, FleetManifestName)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := DiscoverFleet(root)
		if err != nil {
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error does not name %s: %v", path, err)
			}
			return
		}
		if len(m.Clusters) == 0 {
			t.Fatal("accepted a manifest without clusters")
		}
		seen := map[string]bool{}
		for _, e := range m.Clusters {
			if e.Name == "" || seen[e.Name] {
				t.Fatalf("accepted cluster name %q in %+v", e.Name, m.Clusters)
			}
			seen[e.Name] = true
		}
	})
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
