package store

import (
	"container/list"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// TableCache is a size-bounded LRU over decoded day tables. The gzip+delta
// decode of a partition is the measured hot path of both the query tier and
// the archive-backed analyses; keeping decoded tables resident lets repeated
// reads of the same days skip it entirely.
//
// The cache lives in store — not in any one consumer — so the query engine
// and the analysis source layer can share a single byte budget: one cache,
// one eviction policy, however many data planes read through it.
//
// One mutex guards the list, the map, the byte count and the admission
// doorkeeper. Behind queryd's reply cache only the replies it computes read
// through here, not every request, so one lock is not contended on the
// serving path; and one list is what makes eviction least recently used
// first across the whole budget. A table up to the whole budget is admitted
// by evicting the rest.
//
// TableCache is safe for concurrent use. The zero value is not usable;
// construct with NewTableCache.
type TableCache struct {
	max int64

	mu    sync.Mutex
	lru   list.List // front = most recently used
	items map[string]*list.Element
	bytes int64 // resident decoded bytes
	// Admission doorkeeper: first-touch keys are served by the streaming
	// iterator without entering the cache; only keys touched again get
	// decoded tables admitted. A single full-archive sweep therefore cannot
	// evict the working set. The map is bounded and reset when full —
	// forgetting old touch counts only delays admission by one access.
	touched map[string]int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// touchLimit bounds the doorkeeper map. 8192 keys is ~years of day
// partitions across several datasets; resetting beyond that is harmless.
const touchLimit = 8192

// touch records an access intent for key and returns how many times the key
// has been touched (including this one) since the doorkeeper last reset.
// The read path calls it on every cache miss: a result of 1 means
// "first sight, serve via the iterator, do not admit"; >= 2 means the key
// is hot and worth materializing into the cache.
func (c *TableCache) touch(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
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

type cacheEntry struct {
	key  string
	tab  *Table
	size int64
}

// NewTableCache bounds total decoded bytes. maxBytes <= 0 disables caching
// (every lookup misses, nothing is admitted).
func NewTableCache(maxBytes int64) *TableCache {
	return &TableCache{max: maxBytes, items: make(map[string]*list.Element)}
}

// Max returns the configured byte budget.
func (c *TableCache) Max() int64 { return c.max }

// get returns the cached table for key, promoting it to most recently used.
func (c *TableCache) get(key string) (*Table, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).tab, true
}

// put inserts (or refreshes) the table under key as the most recently used
// entry, evicts least recently used entries until the cache is back under
// its byte budget, and returns how many it evicted. A table larger than the
// entire budget is not cached at all, so the loop never reaches key itself.
func (c *TableCache) put(key string, tab *Table) (evicted int) {
	size := TableBytes(tab)
	if size > c.max {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.bytes += size - e.size
		e.tab, e.size = tab, size
	} else {
		c.items[key] = c.lru.PushFront(&cacheEntry{key: key, tab: tab, size: size})
		c.bytes += size
	}
	for ; c.bytes > c.max; evicted++ {
		e := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.items, e.key)
		c.bytes -= e.size
	}
	c.evictions.Add(int64(evicted))
	return evicted
}

// Flush empties the cache, including the admission doorkeeper's touch
// counts: a flushed cache is fully cold, so the next read of any key
// streams again instead of inheriting pre-flush admission decisions.
func (c *TableCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.items = make(map[string]*list.Element)
	c.bytes = 0
	c.touched = nil
}

// Stats returns the resident entry count and decoded byte total.
func (c *TableCache) Stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.bytes
}

// cacheKey builds the canonical cache key of one decoded partition read:
// dataset, day, and the column selection (nil = every column), so a
// full-table load and a column-selective load never alias.
func cacheKey(dataset string, day int, cols []string) string {
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
	key := cacheKey(d.Name, day, names)
	if tab, ok := c.get(key); ok {
		return tab, true, nil
	}
	tab, err := d.ReadDayColumns(day, names)
	if err != nil {
		return nil, false, err
	}
	c.put(key, tab)
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
	key := cacheKey(d.Name, day, admit)
	tab, hit := c.get(key)
	res := DayScan{Hit: hit}
	if !hit {
		if c.touch(key) < 2 {
			res.Streamed = true
			_, err := d.IterDayColumns(day, axes, value, sc, fn)
			return res, err
		}
		var err error
		if tab, err = d.ReadDayColumns(day, admit); err != nil {
			return res, err
		}
		res.Decoded, res.Evictions = TableBytes(tab), c.put(key, tab)
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
