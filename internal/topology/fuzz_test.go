package topology

import "testing"

// FuzzLocationRoundTrip checks the LocationOf → NodeAt round trip on
// arbitrary floor shapes: for every populated node, NodeAt(LocationOf(id))
// must read back to id, on the Summit preset and the Frontier preset alike
// (Frontier's cabinets hold 128 nodes).
func FuzzLocationRoundTrip(f *testing.F) {
	f.Add(4626, 0, false)
	f.Add(4626, 4625, false)
	f.Add(256, 17, false)
	f.Add(9408, 9407, true)
	f.Add(1, 0, true)
	f.Add(129, 128, true)
	f.Fuzz(func(t *testing.T, nodes, id int, frontier bool) {
		if nodes <= 0 || nodes > 1<<16 {
			t.Skip()
		}
		site := SiteSummit
		if frontier {
			site = SiteFrontier
		}
		cfg, err := PresetScaled(site, nodes)
		if err != nil {
			t.Fatal(err)
		}
		fl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if id < 0 || id >= nodes {
			id = ((id % nodes) + nodes) % nodes
		}
		loc := fl.LocationOf(NodeID(id))
		got, ok := fl.NodeAt(loc)
		if !ok || got != NodeID(id) {
			t.Fatalf("site %s nodes %d: round trip %d -> %+v -> %d (%v)", site, nodes, id, loc, got, ok)
		}
	})
}
