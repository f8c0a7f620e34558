package store

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// TableCache is a sharded, size-bounded LRU over decoded day tables. The
// gzip+delta decode of a partition is the measured hot path of both the
// query tier and the archive-backed analyses; keeping decoded tables
// resident lets repeated reads of the same days skip it entirely. Sharding
// keeps lock contention off the serving path when many readers hit the
// cache concurrently.
//
// The cache lives in store — not in any one consumer — so the query engine
// and the analysis source layer can share a single byte budget: one cache,
// one eviction policy, however many data planes read through it.
//
// The byte budget is global, not per shard: one day of per-node telemetry
// decodes to tens of megabytes, so a per-shard budget would refuse exactly
// the tables most worth caching. Eviction starts in the inserting shard
// (locks are only ever held one at a time, so spilling into neighbor shards
// cannot deadlock).
const cacheShards = 16

// TableCache is safe for concurrent use. The zero value is not usable;
// construct with NewTableCache.
type TableCache struct {
	max    int64
	bytes  atomic.Int64 // resident decoded bytes across all shards
	shards [cacheShards]cacheShard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	// Admission doorkeeper: first-touch keys are served by the streaming
	// iterator without entering the cache; only keys touched again get
	// decoded tables admitted. A single full-archive sweep therefore cannot
	// evict the working set. The map is bounded and reset when full —
	// forgetting old touch counts only delays admission by one access.
	touchMu sync.Mutex
	touched map[string]int
}

// touchLimit bounds the doorkeeper map. 8192 keys is ~years of day
// partitions across several datasets; resetting beyond that is harmless.
const touchLimit = 8192

// Touch records an access intent for key and returns how many times the key
// has been touched (including this one) since the doorkeeper last reset.
// The read path calls it on every cache miss: a result of 1 means
// "first sight, serve via the iterator, do not admit"; >= 2 means the key
// is hot and worth materializing into the cache.
func (c *TableCache) Touch(key string) int {
	c.touchMu.Lock()
	defer c.touchMu.Unlock()
	if c.touched == nil || len(c.touched) >= touchLimit {
		c.touched = make(map[string]int, 64)
	}
	c.touched[key]++
	return c.touched[key]
}

// CacheCounters is a snapshot of the cache's access statistics.
type CacheCounters struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Counters returns the cumulative hit/miss/eviction counts.
func (c *TableCache) Counters() CacheCounters {
	return CacheCounters{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

type cacheShard struct {
	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key  string
	tab  *Table
	size int64
}

// NewTableCache bounds total decoded bytes across all shards. maxBytes <= 0
// disables caching (every Get misses, Put is a no-op).
func NewTableCache(maxBytes int64) *TableCache {
	c := &TableCache{max: maxBytes}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[string]*list.Element)
	}
	return c
}

// Max returns the configured byte budget.
func (c *TableCache) Max() int64 { return c.max }

func (c *TableCache) shardIndex(key string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key)) // fnv.Write cannot fail
	return int(h.Sum32() % cacheShards)
}

// Get returns the cached table for key, promoting it to most recently used.
func (c *TableCache) Get(key string) (*Table, bool) {
	s := &c.shards[c.shardIndex(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	s.ll.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).tab, true
}

// Put inserts (or refreshes) the table under key and returns how many
// entries were evicted to stay under the byte budget. A table larger than
// the entire budget is not cached at all.
func (c *TableCache) Put(key string, tab *Table) (evicted int) {
	size := TableBytes(tab)
	if size > c.max {
		return 0
	}
	idx := c.shardIndex(key)
	s := &c.shards[idx]
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.bytes.Add(size - e.size)
		e.tab, e.size = tab, size
	} else {
		s.items[key] = s.ll.PushFront(&cacheEntry{key: key, tab: tab, size: size})
		c.bytes.Add(size)
	}
	// Evict within the inserting shard first, sparing the entry itself.
	for c.bytes.Load() > c.max && s.ll.Len() > 1 {
		evicted += c.evictOldest(s)
	}
	s.mu.Unlock()
	// Still over budget (the new entry dominates its shard): spill eviction
	// into the other shards, oldest-first per shard.
	for i := 1; i < cacheShards && c.bytes.Load() > c.max; i++ {
		o := &c.shards[(idx+i)%cacheShards]
		o.mu.Lock()
		for c.bytes.Load() > c.max && o.ll.Len() > 0 {
			evicted += c.evictOldest(o)
		}
		o.mu.Unlock()
	}
	return evicted
}

// evictOldest removes the LRU entry of s. Caller holds s.mu.
func (c *TableCache) evictOldest(s *cacheShard) int {
	oldest := s.ll.Back()
	if oldest == nil {
		return 0
	}
	e := oldest.Value.(*cacheEntry)
	s.ll.Remove(oldest)
	delete(s.items, e.key)
	c.bytes.Add(-e.size)
	c.evictions.Add(1)
	return 1
}

// Flush empties the cache, including the admission doorkeeper's touch
// counts: a flushed cache is fully cold, so the next read of any key
// streams again instead of inheriting pre-flush admission decisions.
func (c *TableCache) Flush() {
	c.touchMu.Lock()
	c.touched = nil
	c.touchMu.Unlock()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; el = el.Next() {
			c.bytes.Add(-el.Value.(*cacheEntry).size)
		}
		s.ll.Init()
		s.items = make(map[string]*list.Element)
		s.mu.Unlock()
	}
}

// Stats returns the resident entry count and decoded byte total.
func (c *TableCache) Stats() (entries int, bytes int64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		entries += s.ll.Len()
		s.mu.Unlock()
	}
	return entries, c.bytes.Load()
}

// CacheKey builds the canonical cache key of one decoded partition read:
// dataset, day, and the column selection (nil = every column). Consumers
// sharing one TableCache must key reads this way so a full-table load and a
// column-selective load never alias.
func CacheKey(dataset string, day int, cols []string) string {
	key := dataset + "|" + strconv.Itoa(day) + "|"
	if cols == nil {
		return key + "*"
	}
	return key + strings.Join(cols, ",")
}

// ReadDayColumnsCached is the shared hot-path read: load the named columns
// of one day partition (nil = all) through the cache. The boolean reports a
// cache hit.
func (d *Dataset) ReadDayColumnsCached(c *TableCache, day int, names []string) (*Table, bool, error) {
	key := CacheKey(d.Name, day, names)
	if tab, ok := c.Get(key); ok {
		return tab, true, nil
	}
	tab, err := d.ReadDayColumns(day, names)
	if err != nil {
		return nil, false, err
	}
	c.Put(key, tab)
	return tab, false, nil
}

// DayScan reports how one ScanDay call was served.
type DayScan struct {
	Hit       bool  // the admit table was resident
	Streamed  bool  // first touch: read through the block iterator, nothing admitted
	Decoded   int64 // decoded bytes of the table this call materialized
	Evictions int   // entries evicted to admit it
}

// ScanDay is the one way a day partition is read for its rows: it delivers
// the numeric value column to fn in row-order blocks, with the integer axes
// columns in sc.Axes, exactly as IterDayColumns does. How the rows are
// obtained is the cache's policy, decided here and nowhere else. A resident
// table (keyed by the admit column set, nil = every column) is delivered
// without decoding. A partition missed for the first time streams through
// the block iterator and is not admitted, so one sweep over an archive
// cannot evict the working set. A partition missed again is materialized
// with ReadDayColumns(admit), admitted, and delivered from the table.
// Callers sharing c that pass different admit sets share its budget, not
// its entries.
//
// admit must cover axes and value; c must be non-nil. Every read path
// delivers the same rows in the same order.
func (d *Dataset) ScanDay(c *TableCache, day int, admit, axes []string, value string, sc *IterScratch,
	fn func(start int, vals []float64) error) (DayScan, error) {
	key := CacheKey(d.Name, day, admit)
	tab, hit := c.Get(key)
	res := DayScan{Hit: hit}
	if !hit {
		if c.Touch(key) < 2 {
			res.Streamed = true
			_, err := d.IterDayColumns(day, axes, value, sc, fn)
			return res, err
		}
		var err error
		if tab, err = d.ReadDayColumns(day, admit); err != nil {
			return res, err
		}
		res.Decoded, res.Evictions = TableBytes(tab), c.Put(key, tab)
	}
	sc.reset(len(axes))
	for k, name := range axes {
		col := tab.Col(name)
		if col == nil || !col.IsInt() {
			return res, d.partitionErr(day, fmt.Errorf("store: missing integer axis column %q", name))
		}
		sc.Axes[k] = col.Ints
	}
	val := tab.Col(value)
	switch {
	case val == nil || val.IsStr():
		return res, d.partitionErr(day, fmt.Errorf("store: missing numeric value column %q", value))
	case val.IsInt():
		return res, sc.widen(val.Ints, fn)
	case len(val.Floats) > 0:
		return res, fn(0, val.Floats)
	}
	return res, nil
}

// TableBytes approximates the resident size of a decoded table: 8 bytes per
// numeric value (string values count their bytes plus header) plus
// per-column slice overhead. Cache accounting and decode metrics share this
// estimate.
func TableBytes(t *Table) int64 {
	var b int64
	for i := range t.Cols {
		c := &t.Cols[i]
		if c.IsStr() {
			for _, s := range c.Strs {
				b += int64(len(s)) + 16
			}
			b += 64
			continue
		}
		b += int64(c.Len())*8 + 64
	}
	return b
}
