package source

import "testing"

// TestIdentityPin freezes the ring placement of three partitions over four
// shards, recorded before hash64 moved onto the shared internal/rng
// helpers: a coordinator and a shard built at different commits must still
// agree on ownership.
func TestIdentityPin(t *testing.T) {
	r := NewRing([]string{"shard-0", "shard-1", "shard-2", "shard-3"}, 0)
	for _, tc := range []struct {
		p     Partition
		hash  uint64
		owner int
	}{
		{Partition{"summit-0", 0}, 0x98a48f8399e2e1c6, 1},
		{Partition{"summit-0", 3}, 0xbd0744b03e315076, 0},
		{Partition{"frontier-1", 12}, 0x8927f9562cccbde6, 3},
	} {
		if got := hash64(tc.p.Key()); got != tc.hash {
			t.Errorf("hash64(%s) = %#016x, want %#016x", tc.p.Key(), got, tc.hash)
		}
		if got := r.Owner(tc.p); got != tc.owner {
			t.Errorf("Owner(%s) = %d, want %d", tc.p.Key(), got, tc.owner)
		}
	}
}
