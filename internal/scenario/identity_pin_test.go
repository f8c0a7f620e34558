package scenario

import "testing"

// TestIdentityPin freezes the content hash and derived run seed of two
// catalog entries (one generated, one replaying the bundled trace, whose
// bytes are hashed in), recorded before hashSpec and deriveSeed moved onto
// the shared internal/rng helpers.
func TestIdentityPin(t *testing.T) {
	for _, tc := range []struct {
		name       string
		hash, seed uint64
	}{
		{"heatwave-summer", 0x7a1262fe61bb325b, 0xcb3ca83a53c8bf23},
		{"trace-replay", 0x0c5e9e92c2072de1, 0x470b6f06025da3f9},
	} {
		r, err := Resolve(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if r.Hash != tc.hash || r.Seed != tc.seed {
			t.Errorf("%s: hash %#016x seed %#016x, want %#016x / %#016x",
				tc.name, r.Hash, r.Seed, tc.hash, tc.seed)
		}
	}
}
