package source

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/failures"
	"repro/internal/parallel"
	"repro/internal/store"
	"repro/internal/tsagg"
)

// Shard is one member of a federation: a named RunSource serving the day
// partitions the ring assigns it (typically a RestrictedSource, or an
// out-of-process archive mounted read-only).
type Shard struct {
	Name   string
	Source RunSource
}

// FederatedConfig parameterizes OpenFederated.
type FederatedConfig struct {
	// Shards are the federation members; names must be non-empty and unique
	// (they seed the consistent-hash ring, so renaming a shard remaps its
	// partitions).
	Shards []Shard
	// VNodes is the ring's virtual-node count per shard (<= 0:
	// DefaultVNodes). Every process addressing the same fleet must use the
	// same value.
	VNodes int
	// AllowPartial degrades Series reads when a partition's owner fails:
	// the failed days stay NaN and the per-shard errors are reported through
	// SeriesDetail instead of failing the whole query.
	AllowPartial bool
	// Workers bounds the per-day fan-out (<= 0: GOMAXPROCS).
	Workers int
}

// ShardError reports one failed partition read: the shard that owns the
// partition, which day, and the shard's error.
type ShardError struct {
	Shard string
	Day   int
	Err   error
}

func (e ShardError) Error() string {
	return fmt.Sprintf("shard %s day %d: %v", e.Shard, e.Day, e.Err)
}

func (e ShardError) Unwrap() error { return e.Err }

// ShardStats is one shard's counters in a FederationSnapshot.
type ShardStats struct {
	Name         string `json:"name"`
	OwnedDays    int    `json:"owned_days"`
	Requests     int64  `json:"requests"`
	Errors       int64  `json:"errors"`
	CacheEntries int    `json:"cache_entries"`
	CacheBytes   int64  `json:"cache_bytes"`
}

// FederationSnapshot is a point-in-time view of the coordinator's counters,
// exposed by queryd's /debug/vars.
type FederationSnapshot struct {
	Shards         int          `json:"shards"`
	Fanouts        int64        `json:"fanouts"`
	PartialResults int64        `json:"partial_results"`
	PerShard       []ShardStats `json:"per_shard"`
}

// federationStats holds the coordinator's atomic counters; the per-shard
// slices are sized at open and never resized, so the atomics never move.
type federationStats struct {
	fanouts   atomic.Int64
	partials  atomic.Int64
	shardReqs []atomic.Int64
	shardErrs []atomic.Int64
}

// FederatedSource is the scatter-gather coordinator over a fleet of
// RunSource shards. Day partitions route to one owner each by consistent
// hashing of (cluster, day); reads fan out per day with bounded
// parallelism and stitch back serially in day order — so a federated read
// is bit-identical to the equivalent single-source read for any shard count
// and worker count.
type FederatedSource struct {
	cfg     FederatedConfig
	ring    *Ring
	meta    Meta
	days    int
	names   []string
	nameSet map[string]bool
	stats   federationStats
}

var _ RunSource = (*FederatedSource)(nil)

// OpenFederated validates the shard set and builds the coordinator. Every
// shard must be reachable at open and agree on the run's Meta — a mismatch
// means the shards are not views of one run and federation would silently
// mix data.
func OpenFederated(cfg FederatedConfig) (*FederatedSource, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("source: federation needs at least one shard")
	}
	names := make([]string, len(cfg.Shards))
	seen := map[string]bool{}
	for i, sh := range cfg.Shards {
		if sh.Name == "" {
			return nil, fmt.Errorf("source: shard %d has no name", i)
		}
		if seen[sh.Name] {
			return nil, fmt.Errorf("source: duplicate shard name %q", sh.Name)
		}
		if sh.Source == nil {
			return nil, fmt.Errorf("source: shard %q has no source", sh.Name)
		}
		seen[sh.Name] = true
		names[i] = sh.Name
	}
	f := &FederatedSource{
		cfg:  cfg,
		ring: NewRing(names, cfg.VNodes),
	}
	f.stats.shardReqs = make([]atomic.Int64, len(cfg.Shards))
	f.stats.shardErrs = make([]atomic.Int64, len(cfg.Shards))
	for i, sh := range cfg.Shards {
		m, err := sh.Source.Meta()
		if err != nil {
			return nil, fmt.Errorf("source: shard %q meta: %w", sh.Name, err)
		}
		if i == 0 {
			f.meta = m
			continue
		}
		if m != f.meta {
			return nil, fmt.Errorf("source: shard %q meta %+v disagrees with shard %q meta %+v",
				sh.Name, m, cfg.Shards[0].Name, f.meta)
		}
	}
	f.days = DayCount(f.meta)
	nameSet := map[string]bool{}
	for _, sh := range cfg.Shards {
		ns, err := sh.Source.SeriesNames()
		if err != nil {
			return nil, fmt.Errorf("source: shard %q series names: %w", sh.Name, err)
		}
		for _, n := range ns {
			nameSet[n] = true
		}
	}
	f.nameSet = nameSet
	f.names = make([]string, 0, len(nameSet))
	for n := range nameSet {
		f.names = append(f.names, n)
	}
	sort.Strings(f.names)
	return f, nil
}

// Meta implements RunSource.
func (f *FederatedSource) Meta() (Meta, error) { return f.meta, nil }

// SeriesNames implements RunSource: the sorted union over all shards,
// resolved at open.
func (f *FederatedSource) SeriesNames() ([]string, error) {
	return append([]string(nil), f.names...), nil
}

// Days returns the fleet's day-partition count.
func (f *FederatedSource) Days() int { return f.days }

// Stats snapshots the coordinator's counters.
func (f *FederatedSource) Stats() FederationSnapshot {
	snap := FederationSnapshot{
		Shards:         len(f.cfg.Shards),
		Fanouts:        f.stats.fanouts.Load(),
		PartialResults: f.stats.partials.Load(),
	}
	owned := make([]int, len(f.cfg.Shards))
	for d := 0; d < f.days; d++ {
		owned[f.ring.Owner(Partition{Cluster: f.meta.Cluster, Day: d})]++
	}
	for i, sh := range f.cfg.Shards {
		st := ShardStats{
			Name:      sh.Name,
			OwnedDays: owned[i],
			Requests:  f.stats.shardReqs[i].Load(),
			Errors:    f.stats.shardErrs[i].Load(),
		}
		if cs, ok := sh.Source.(cacheStatser); ok {
			st.CacheEntries, st.CacheBytes = cs.CacheStats()
		}
		snap.PerShard = append(snap.PerShard, st)
	}
	return snap
}

// fetchOwned reads one partition from the shard that owns it. A failed
// read is a ShardError naming the owner and the day.
func fetchOwned[T any](f *FederatedSource, p Partition, fetch func(RunSource) (T, error)) (T, error) {
	sh := f.ring.Owner(p)
	f.stats.shardReqs[sh].Add(1)
	v, err := fetch(f.cfg.Shards[sh].Source)
	if err != nil {
		f.stats.shardErrs[sh].Add(1)
		return v, ShardError{Shard: f.cfg.Shards[sh].Name, Day: p.Day, Err: err}
	}
	return v, nil
}

// dayIdxRange returns the coarsening-window index range [i0, i1) that day d
// covers on the run's grid.
func (f *FederatedSource) dayIdxRange(d int) (int, int) {
	i0 := ceilDiv(int64(d)*86400, f.meta.StepSec)
	i1 := ceilDiv(int64(d+1)*86400, f.meta.StepSec)
	return int(i0), int(i1)
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// Series implements RunSource. Per-shard failures fail the read unless
// AllowPartial is set; SeriesDetail exposes the partial-result errors.
//
//lint:detroot
func (f *FederatedSource) Series(name string) (*tsagg.Series, error) {
	s, _, err := f.SeriesDetail(name)
	return s, err
}

// SeriesDetail is the federated read with explicit degradation reporting:
// the stitched series, plus one ShardError per day whose owner failed.
// Without AllowPartial any ShardError fails the read; with it, failed days
// stay NaN and the caller decides whether a partial answer is acceptable.
//
//lint:detroot
func (f *FederatedSource) SeriesDetail(name string) (*tsagg.Series, []ShardError, error) {
	if !f.nameSet[name] {
		return nil, nil, fmt.Errorf("source: series %q: %w", name, ErrUnknownSeries)
	}
	f.stats.fanouts.Add(1)
	type dayResult struct {
		s   *tsagg.Series
		err error
	}
	res := make([]dayResult, f.days)
	// Scatter: each day routes to its ring owner independently. Slots are
	// disjoint, so no locking; the stitch below runs serially in day order,
	// which is what makes the result worker-count invariant.
	parallel.ForEach(f.days, f.cfg.Workers, func(d int) {
		t0 := f.meta.StartTime + int64(d)*86400
		t1 := t0 + 86400
		s, err := fetchOwned(f, Partition{Cluster: f.meta.Cluster, Day: d},
			func(src RunSource) (*tsagg.Series, error) {
				if sr, ok := src.(seriesRanger); ok {
					return sr.SeriesRange(name, t0, t1)
				}
				return src.Series(name)
			})
		res[d] = dayResult{s, err}
	})
	out := tsagg.NewSeries(f.meta.StartTime, f.meta.StepSec, 0)
	var shardErrs []ShardError
	var errs []error
	for d := 0; d < f.days; d++ {
		r := res[d]
		if r.err != nil {
			shardErrs = append(shardErrs, r.err.(ShardError))
			errs = append(errs, r.err)
			continue
		}
		if r.s == nil {
			continue
		}
		i0, i1 := f.dayIdxRange(d)
		if n := len(r.s.Vals); i1 > n {
			i1 = n
		}
		for idx := i0; idx < i1; idx++ {
			for idx >= len(out.Vals) {
				out.Vals = append(out.Vals, math.NaN())
			}
			out.Vals[idx] = r.s.Vals[idx]
		}
	}
	if len(errs) > 0 {
		if !f.cfg.AllowPartial {
			return nil, shardErrs, errors.Join(errs...)
		}
		f.stats.partials.Add(1)
	}
	return out, shardErrs, nil
}

// MeterSeries implements RunSource, mirroring the archive's probe loop over
// the federated name catalog.
//
//lint:detroot
func (f *FederatedSource) MeterSeries() ([]*tsagg.Series, []*tsagg.Series, error) {
	var meters, sums []*tsagg.Series
	for m := 0; ; m++ {
		if !f.nameSet[MeterSeriesName(m)] || !f.nameSet[MSBSumSeriesName(m)] {
			break
		}
		meter, err := f.Series(MeterSeriesName(m))
		if err != nil {
			return nil, nil, err
		}
		sum, err := f.Series(MSBSumSeriesName(m))
		if err != nil {
			return nil, nil, err
		}
		meters = append(meters, meter)
		sums = append(sums, sum)
	}
	if len(meters) == 0 {
		return nil, nil, fmt.Errorf("source: federation has no meter series: %w", ErrUnavailable)
	}
	return meters, sums, nil
}

// JobRecords implements RunSource: the writer puts every job row in the
// logDay partition, so the read routes to that partition's owner.
//
//lint:detroot
func (f *FederatedSource) JobRecords() ([]JobRecord, error) {
	recs, err := fetchOwned(f, Partition{Cluster: f.meta.Cluster, Day: logDay},
		func(src RunSource) ([]JobRecord, error) { return src.JobRecords() })
	return recs, err
}

// Failures implements RunSource; like job rows, the log lives at logDay.
//
//lint:detroot
func (f *FederatedSource) Failures() ([]failures.Event, error) {
	evs, err := fetchOwned(f, Partition{Cluster: f.meta.Cluster, Day: logDay},
		func(src RunSource) ([]failures.Event, error) { return src.Failures() })
	return evs, err
}

// NodeWindows implements RunSource: day-addressed, so it routes directly to
// the day's owner.
//
//lint:detroot
func (f *FederatedSource) NodeWindows(day int) (map[int][]tsagg.WindowStat, error) {
	m, err := fetchOwned(f, Partition{Cluster: f.meta.Cluster, Day: day},
		func(src RunSource) (map[int][]tsagg.WindowStat, error) { return src.NodeWindows(day) })
	return m, err
}

// ShardedArchiveConfig parameterizes OpenShardedArchive.
type ShardedArchiveConfig struct {
	// Archive is the per-shard open configuration; its Cache field is
	// ignored (each shard gets a private cache carved from CacheBytes).
	Archive ArchiveConfig
	// Shards is the shard count (<= 0: 1).
	Shards int
	// CacheBytes is the total decoded-table cache budget split evenly
	// across shards (<= 0: 256 MiB), floored at 1 MiB per shard.
	CacheBytes int64
	// VNodes, AllowPartial and Workers pass through to the federation; see
	// FederatedConfig.
	VNodes       int
	AllowPartial bool
	Workers      int
}

// OpenShardedArchive opens one archive directory as an N-shard federation:
// each shard is a private ArchiveSource (own decoded cache) restricted to
// the day partitions the ring assigns it. This is the in-process stand-in
// for physically distributed shards — and the bit-parity test bed: the
// federated view must answer identically to a plain OpenArchive.
func OpenShardedArchive(cfg ShardedArchiveConfig) (*FederatedSource, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	total := cfg.CacheBytes
	if total <= 0 {
		total = 256 << 20
	}
	per := total / int64(n)
	if per < 1<<20 {
		per = 1 << 20
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	acfg := cfg.Archive
	acfg.Cache = store.NewTableCache(per)
	probe, err := OpenArchive(acfg)
	if err != nil {
		return nil, err
	}
	meta, err := probe.Meta()
	if err != nil {
		return nil, err
	}
	ring := NewRing(names, cfg.VNodes)
	ownedDays := make([][]int, n)
	for d := 0; d < DayCount(meta); d++ {
		sh := ring.Owner(Partition{Cluster: meta.Cluster, Day: d})
		ownedDays[sh] = append(ownedDays[sh], d)
	}
	shards := make([]Shard, n)
	for i := 0; i < n; i++ {
		a := probe // shard 0 reuses the probe and its private cache
		if i > 0 {
			c := cfg.Archive
			c.Cache = store.NewTableCache(per)
			if a, err = OpenArchive(c); err != nil {
				return nil, err
			}
		}
		shards[i] = Shard{Name: names[i], Source: Restrict(a, ownedDays[i])}
	}
	return OpenFederated(FederatedConfig{
		Shards:       shards,
		VNodes:       cfg.VNodes,
		AllowPartial: cfg.AllowPartial,
		Workers:      cfg.Workers,
	})
}
