package source

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Partition identifies one shard-addressable unit of fleet data: one day
// partition of one cluster's run. Job records and the failure log live at
// day 0 by the archive writer's layout contract, so their partition is
// (cluster, 0).
type Partition struct {
	Cluster string
	Day     int
}

// Ring is a consistent-hash ring mapping partitions to shards. Each shard
// contributes VNodes virtual points so load spreads evenly and adding or
// removing one shard remaps only ~1/N of the partitions. The ring is
// immutable and deterministic in (names, vnodes): every process that
// builds it from the same shard list computes identical ownership, which
// is what lets a coordinator and an out-of-process shard agree without a
// metadata service.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// DefaultVNodes is the virtual-node count per shard when the caller passes
// none. 64 points per shard keeps the maximum-to-mean partition load under
// ~1.3 for small fleets.
const DefaultVNodes = 64

// NewRing builds the ring over the given shard names. vnodes <= 0 uses
// DefaultVNodes.
func NewRing(names []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{points: make([]ringPoint, 0, len(names)*vnodes)}
	for i, name := range names {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(fmt.Sprintf("%s#%d", name, v)),
				shard: i,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.shard < b.shard // tie-break keeps the order deterministic
	})
	return r
}

// Key is the canonical hash key of a partition.
func (p Partition) Key() string { return fmt.Sprintf("%s|day-%05d", p.Cluster, p.Day) }

// Owner returns the shard owning partition p: the first ring point
// clockwise from the partition's hash. It is deterministic, and -1 on an
// empty ring.
func (r *Ring) Owner(p Partition) int {
	if len(r.points) == 0 {
		return -1
	}
	h := hash64(p.Key())
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return r.points[i%len(r.points)].shard
}

// hash64 hashes a key onto the ring. Raw FNV-1a has almost no avalanche on
// short keys that differ only in a trailing counter ("a#0", "a#1", …): the
// sums land in one contiguous arc per shard and the ring degenerates to
// "one shard owns everything". The splitmix64 finalizer diffuses every
// input bit across the word, restoring uniform placement.
func hash64(s string) uint64 {
	return rng.Mix64(rng.HashString(s))
}
