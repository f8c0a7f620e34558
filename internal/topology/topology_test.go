package topology

import "testing"

func summit(t *testing.T) *Floor {
	t.Helper()
	f, err := New(SummitConfig())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSummitDimensions(t *testing.T) {
	f := summit(t)
	if f.Nodes() != 4626 {
		t.Errorf("nodes = %d, want 4626", f.Nodes())
	}
	if f.Cabinets() != 257 {
		t.Errorf("cabinets = %d, want 257", f.Cabinets())
	}
	if f.MSBs() != 5 {
		t.Errorf("MSBs = %d, want 5", f.MSBs())
	}
	if f.cfg.NodesPerCabinet != 18 {
		t.Errorf("nodes/cabinet = %d, want 18", f.cfg.NodesPerCabinet)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Nodes: 0, NodesPerCabinet: 18, MSBs: 5},
		{Nodes: 10, NodesPerCabinet: 0, MSBs: 5},
		{Nodes: 10, NodesPerCabinet: 18, MSBs: 0},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew on bad config did not panic")
		}
	}()
	MustNew(Config{})
}

func TestMSBPartition(t *testing.T) {
	f := summit(t)
	// Every node belongs to exactly one MSB, and the per-MSB lists
	// partition the node set.
	total := 0
	seen := make([]bool, f.Nodes())
	for m := MSB(0); int(m) < f.MSBs(); m++ {
		ids := f.NodesUnderMSB(m)
		total += len(ids)
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("node %d under two MSBs", id)
			}
			seen[id] = true
			if f.MSBOf(id) != m {
				t.Fatalf("MSBOf(%d) = %v, want %v", id, f.MSBOf(id), m)
			}
		}
		if len(ids) == 0 {
			t.Errorf("%v feeds no nodes", m)
		}
	}
	if total != f.Nodes() {
		t.Errorf("MSB partition covers %d nodes, want %d", total, f.Nodes())
	}
}

func TestMSBBalance(t *testing.T) {
	f := summit(t)
	// Contiguous block assignment: sizes differ by at most one cabinet.
	min, max := f.Nodes(), 0
	for m := MSB(0); int(m) < f.MSBs(); m++ {
		n := len(f.NodesUnderMSB(m))
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 2*f.cfg.NodesPerCabinet {
		t.Errorf("MSB imbalance: min %d, max %d", min, max)
	}
}

func TestMSBString(t *testing.T) {
	if MSB(0).String() != "MSB A" || MSB(4).String() != "MSB E" {
		t.Error("MSB stringer mismatch")
	}
}

func TestCoolingOrder(t *testing.T) {
	if got := CoolingOrder(0); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("CoolingOrder(0) = %v", got)
	}
	if got := CoolingOrder(1); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Errorf("CoolingOrder(1) = %v", got)
	}
}

func TestScaledConfig(t *testing.T) {
	f := MustNew(ScaledConfig(64))
	if f.Nodes() != 64 {
		t.Errorf("scaled nodes = %d, want 64", f.Nodes())
	}
	if f.Cabinets() != 4 {
		t.Errorf("scaled cabinets = %d, want 4 (ceil(64/18))", f.Cabinets())
	}
}
