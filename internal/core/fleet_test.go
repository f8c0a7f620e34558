package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/topology"
)

// fleetTestConfig is a small cluster config for fleet tests.
func fleetTestConfig(name, site string, seed uint64) sim.Config {
	return sim.Config{
		Seed:             seed,
		Nodes:            16,
		Cluster:          name,
		Site:             site,
		StartTime:        1_577_836_800,
		DurationSec:      3 * 3600,
		StepSec:          30,
		SamplesPerWindow: 1,
		Jobs:             8,
	}
}

// TestCollectFleetMatchesSoloRuns is the fleet determinism guarantee: a
// cluster simulated as part of a concurrent fleet produces bit-identical
// data to the same cluster simulated alone, regardless of fleet worker
// count.
func TestCollectFleetMatchesSoloRuns(t *testing.T) {
	cfgs := []sim.Config{
		fleetTestConfig("summit-0", "", sim.DeriveSeed(42, 0)),
		fleetTestConfig("frontier-1", topology.SiteFrontier, sim.DeriveSeed(42, 1)),
	}
	for _, workers := range []int{1, 2} {
		runs, err := CollectFleet(append([]sim.Config(nil), cfgs...), workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 2 {
			t.Fatalf("got %d runs", len(runs))
		}
		for i, cfg := range cfgs {
			solo, _, err := CollectRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := runs[i].Data
			if m := got.Source().RunMeta; m.Cluster != cfg.Cluster || m.Site != cfg.Site {
				t.Fatalf("run %d lost identity: %q/%q", i, m.Cluster, m.Site)
			}
			assertRunDataBitEqual(t, solo, got)
		}
	}
}

// TestCollectFleetValidation covers the error paths: empty fleets,
// duplicate cluster names, bad member configs.
func TestCollectFleetValidation(t *testing.T) {
	if _, err := CollectFleet(nil, 0, nil); err == nil {
		t.Fatal("empty fleet accepted")
	}
	dup := []sim.Config{
		fleetTestConfig("c0", "", 1),
		fleetTestConfig("c0", "", 2),
	}
	if _, err := CollectFleet(dup, 0, nil); err == nil {
		t.Fatal("duplicate cluster names accepted")
	}
	bad := []sim.Config{fleetTestConfig("c0", "atlantis", 1)}
	if _, err := CollectFleet(bad, 0, nil); err == nil {
		t.Fatal("unknown site accepted")
	}

	// A fleet of one reads as its run; a larger fleet names the cluster.
	// Every member's observers are closed however the fleet returns: a
	// refused config, or a Close that fails.
	boom := errors.New("boom")
	failing := func(spies []*closeSpy) func(int) []sim.Observer {
		for i := range spies {
			spies[i] = &closeSpy{err: boom}
		}
		return func(i int) []sim.Observer { return []sim.Observer{spies[i]} }
	}
	closedOnce := func(what string, spies []*closeSpy) {
		for i, s := range spies {
			if s.closed != 1 {
				t.Errorf("%s: member %d's observer closed %d times, want once", what, i, s.closed)
			}
		}
	}
	_, _, solo := CollectRun(bad[0], &closeSpy{err: boom})
	spies := make([]*closeSpy, 1)
	if _, err := CollectFleet(bad, 0, failing(spies)); err == nil || solo == nil || err.Error() != solo.Error() {
		t.Errorf("invalid fleet of one: %v, want CollectRun's %v", err, solo)
	}
	closedOnce("invalid fleet of one", spies)
	if _, err := CollectFleet(cfgsOf("c0"), 0, failing(spies)); err == nil || err.Error() != "boom" {
		t.Errorf("failed Close in a fleet of one: %v, want boom", err)
	}
	closedOnce("failed Close in a fleet of one", spies)
	for _, invalid := range []bool{true, false} { // a validation error, a run error
		cfgs := cfgsOf("c0", "c1")
		if invalid {
			cfgs[1].Site = "atlantis"
		}
		spies := make([]*closeSpy, 2)
		_, err := CollectFleet(cfgs, 0, failing(spies))
		if err == nil || !strings.Contains(err.Error(), "core: cluster 1 (c1): ") || !errors.Is(err, boom) {
			t.Errorf("fleet of two: %v, want an error naming cluster 1 (c1) and the close error", err)
		}
		closedOnce("fleet of two", spies)
	}
}

// cfgsOf is a fleet of small configs with the given cluster names.
func cfgsOf(names ...string) []sim.Config {
	cfgs := make([]sim.Config, len(names))
	for i, name := range names {
		cfgs[i] = fleetTestConfig(name, "", uint64(i+1))
	}
	return cfgs
}

// TestFleetIdentityThroughArchive closes the loop: a fleet member archived
// and re-opened reports its cluster identity through source.Meta.
func TestFleetIdentityThroughArchive(t *testing.T) {
	dir := t.TempDir()
	cfgs := []sim.Config{fleetTestConfig("frontier-1", topology.SiteFrontier, 7)}
	runs, err := CollectFleet(cfgs, 0, nodeWriters(t, cfgs, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDatasets(dir, runs[0].Data); err != nil {
		t.Fatal(err)
	}
	arc, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := arc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Cluster != "frontier-1" || meta.Site != topology.SiteFrontier {
		t.Fatalf("identity lost through archive: %+v", meta)
	}
	if _, err := readNodeDay(dir, 0); err != nil {
		t.Fatalf("fleet node dataset unreadable: %v", err)
	}
	// The floor the archive's identity names is the one its cabinet rollup
	// was folded on: the node-power companion holds a cabinet row for every
	// cabinet of the frontier preset at this size, and for no other.
	floorCfg, err := topology.PresetScaled(meta.Site, meta.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := topology.New(floorCfg)
	if err != nil {
		t.Fatal(err)
	}
	if floor.Cabinets() == 0 {
		t.Fatal("archive floor not built from the frontier preset")
	}
	nodePower, err := store.NewDataset(dir, source.DatasetNodePower)
	if err != nil {
		t.Fatal(err)
	}
	rollup, err := nodePower.Companion(source.RollupDatasetName(source.DatasetNodePower)).ReadDay(0)
	if err != nil {
		t.Fatal(err)
	}
	kind, group := rollup.Col(source.RollupColKind), rollup.Col(source.RollupColGroup)
	if kind == nil || group == nil {
		t.Fatal("rollup companion lacks its kind/group axes")
	}
	cabinets := map[int64]bool{}
	for i, k := range kind.Ints {
		if k == source.RollupKindCabinet {
			cabinets[group.Ints[i]] = true
		}
	}
	for cab := 0; cab < floor.Cabinets(); cab++ {
		if !cabinets[int64(cab)] {
			t.Fatalf("cabinet %d of the %d-cabinet floor has no rollup row", cab, floor.Cabinets())
		}
	}
	if len(cabinets) != floor.Cabinets() {
		t.Fatalf("cabinet rollup groups %v, want the %d cabinets of the floor", cabinets, floor.Cabinets())
	}
}

// TestDeriveSeedSpreads pins the per-cluster seed derivation: distinct,
// stable, and not the base seed.
func TestDeriveSeedSpreads(t *testing.T) {
	seen := map[uint64]bool{42: true}
	for i := 0; i < 64; i++ {
		s := sim.DeriveSeed(42, i)
		if seen[s] {
			t.Fatalf("seed collision at cluster %d", i)
		}
		seen[s] = true
		if s != sim.DeriveSeed(42, i) {
			t.Fatalf("seed derivation unstable at cluster %d", i)
		}
	}
}
