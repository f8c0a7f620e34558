package rng

import (
	"math"
	"testing"
)

// TestIdentityPin freezes the first draw of a root, a Split and a SplitN
// stream, recorded before the splitmix64/FNV-1a helpers were unified: the
// seed expansion and both label hashes sit under every stream in the twin.
func TestIdentityPin(t *testing.T) {
	s := New(2020)
	for _, tc := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"New(2020)", s.Float64(), 0x3fedb6849f5ef126},
		{`Split("meters")`, s.Split("meters").Float64(), 0x3fed8b09bf079068},
		{`SplitN("node", 17)`, s.SplitN("node", 17).Float64(), 0x3fcbf4b4f1e73b90},
	} {
		if got := math.Float64bits(tc.got); got != tc.want {
			t.Errorf("%s first draw = %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
