package topology

import "testing"

// FuzzScaledFloor checks, on arbitrary floor shapes of the Summit and the
// Frontier preset (Frontier's cabinets hold 128 nodes), what runs use of a
// floor: PresetScaled and New succeed, a node's cabinet and switchboard are
// in range, and the switchboards' node lists partition the nodes.
func FuzzScaledFloor(f *testing.F) {
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
		if cab := fl.Cabinet(NodeID(id)); cab < 0 || cab >= fl.Cabinets() {
			t.Fatalf("site %s nodes %d: node %d in cabinet %d of %d", site, nodes, id, cab, fl.Cabinets())
		}
		if m := fl.MSBOf(NodeID(id)); m < 0 || int(m) >= fl.MSBs() {
			t.Fatalf("site %s nodes %d: node %d under %v of %d", site, nodes, id, m, fl.MSBs())
		}
		seen := make([]bool, nodes)
		total := 0
		for m := MSB(0); int(m) < fl.MSBs(); m++ {
			for _, n := range fl.NodesUnderMSB(m) {
				if n < 0 || int(n) >= nodes || seen[n] {
					t.Fatalf("site %s nodes %d: node %d listed twice or out of range under %v", site, nodes, n, m)
				}
				seen[n] = true
				total++
			}
		}
		if total != nodes {
			t.Fatalf("site %s nodes %d: the switchboards list %d nodes", site, nodes, total)
		}
	})
}
