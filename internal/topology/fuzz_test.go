package topology

import "testing"

// FuzzHostname checks the hostname round trip on arbitrary floor shapes:
// for every populated node, Hostname(id) must read back to id, on
// the Summit preset and the Frontier preset alike (Frontier exercises the
// 3-digit slot tokens, e.g. "n128").
func FuzzHostname(f *testing.F) {
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
		name := fl.Hostname(NodeID(id))
		got, ok := hostnameNode(fl, name)
		if !ok {
			t.Fatalf("site %s nodes %d: Hostname(%d)=%q did not parse", site, nodes, id, name)
		}
		if got != NodeID(id) {
			t.Fatalf("site %s nodes %d: round trip %d -> %q -> %d", site, nodes, id, name, got)
		}
	})
}
