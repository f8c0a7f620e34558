package topology

import "testing"

// TestSummitConfigPinned pins the Summit preset bit-for-bit: the multi-site
// refactor must not change the single-floor default in any way.
func TestSummitConfigPinned(t *testing.T) {
	c := SummitConfig()
	if c.Nodes != 4626 || c.NodesPerCabinet != 18 || c.MSBs != 5 {
		t.Fatalf("SummitConfig geometry changed: %+v", c)
	}
	if c.Name != SiteSummit || c.Cooling != CoolingHybridAirWater {
		t.Fatalf("SummitConfig identity wrong: %+v", c)
	}
}

func TestFrontierConfigGeometry(t *testing.T) {
	f, err := New(FrontierConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.Nodes() != 9408 || f.cfg.NodesPerCabinet != 128 {
		t.Fatalf("frontier size wrong: %d nodes, %d per cabinet", f.Nodes(), f.cfg.NodesPerCabinet)
	}
	if f.Cabinets() != 74 {
		t.Fatalf("frontier cabinets = %d, want 74", f.Cabinets())
	}
	if f.MSBs() != 4 {
		t.Fatalf("frontier MSBs = %d, want 4", f.MSBs())
	}
	// Every node maps to a valid switchboard.
	for id := NodeID(0); int(id) < f.Nodes(); id += 101 {
		if m := f.MSBOf(id); int(m) < 0 || int(m) >= f.MSBs() {
			t.Fatalf("node %d mapped to MSB %d", id, m)
		}
	}
}

func TestPresetResolution(t *testing.T) {
	for _, site := range []string{"", SiteSummit} {
		c, err := Preset(site)
		if err != nil {
			t.Fatalf("Preset(%q): %v", site, err)
		}
		if c != SummitConfig() {
			t.Fatalf("Preset(%q) != SummitConfig: %+v", site, c)
		}
	}
	c, err := Preset(SiteFrontier)
	if err != nil {
		t.Fatal(err)
	}
	if c != FrontierConfig() {
		t.Fatalf("Preset(frontier) = %+v", c)
	}
	if _, err := Preset("perlmutter"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestPresetScaled(t *testing.T) {
	c, err := PresetScaled(SiteFrontier, 256)
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes != 256 || c.NodesPerCabinet != FrontierConfig().NodesPerCabinet {
		t.Fatalf("PresetScaled wrong: %+v", c)
	}
	// The Summit path must match the historical ScaledConfig exactly.
	s, err := PresetScaled("", 100)
	if err != nil {
		t.Fatal(err)
	}
	if s != ScaledConfig(100) {
		t.Fatalf("PresetScaled(\"\") diverges from ScaledConfig: %+v", s)
	}
	if _, err := PresetScaled("nope", 10); err == nil {
		t.Fatal("unknown preset accepted")
	}
}
