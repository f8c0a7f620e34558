package source

import (
	"reflect"
	"testing"
)

// TestIdentityPin freezes the ring placement of three partitions over four
// shards, recorded before hash64 moved onto the shared internal/rng
// helpers: a coordinator and a shard built at different commits must still
// agree on ownership.
func TestIdentityPin(t *testing.T) {
	r := NewRing([]string{"shard-0", "shard-1", "shard-2", "shard-3"}, 0)
	for _, tc := range []struct {
		p      Partition
		hash   uint64
		owners []int
	}{
		{Partition{"summit-0", 0}, 0x98a48f8399e2e1c6, []int{1, 3}},
		{Partition{"summit-0", 3}, 0xbd0744b03e315076, []int{0, 2}},
		{Partition{"frontier-1", 12}, 0x8927f9562cccbde6, []int{3, 1}},
	} {
		if got := hash64(tc.p.Key()); got != tc.hash {
			t.Errorf("hash64(%s) = %#016x, want %#016x", tc.p.Key(), got, tc.hash)
		}
		if got := r.Owners(tc.p, 2); !reflect.DeepEqual(got, tc.owners) {
			t.Errorf("Owners(%s) = %v, want %v", tc.p.Key(), got, tc.owners)
		}
	}
}
