package store

import (
	"fmt"
	"sync"
	"testing"
)

func cacheTestTable(rows int) *Table {
	ts := make([]int64, rows)
	v := make([]float64, rows)
	for i := range ts {
		ts[i] = int64(i)
		v[i] = float64(i)
	}
	return &Table{Cols: []Column{
		{Name: "timestamp", Ints: ts},
		{Name: "v", Floats: v},
	}}
}

func TestCacheHitAndPromote(t *testing.T) {
	c := NewTableCache(1 << 20)
	tab := cacheTestTable(10)
	c.Put("a", tab)
	got, ok := c.Get("a")
	if !ok || got != tab {
		t.Fatal("cached table lost")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("phantom hit")
	}
	entries, bytes := c.Stats()
	if entries != 1 || bytes != TableBytes(tab) {
		t.Errorf("stats = %d entries, %d bytes", entries, bytes)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	// Budget of ~32 tables, 200 inserted: eviction must kick in and the
	// global byte accounting must stay under budget throughout.
	budget := int64(cacheShards) * (TableBytes(cacheTestTable(100)) * 2)
	c := NewTableCache(budget)
	evicted := 0
	for i := 0; i < 200; i++ {
		evicted += c.Put(fmt.Sprintf("k%d", i), cacheTestTable(100))
	}
	if evicted == 0 {
		t.Error("no evictions despite exceeding the budget")
	}
	_, bytes := c.Stats()
	if bytes > budget {
		t.Errorf("resident bytes %d exceed budget %d", bytes, budget)
	}
}

func TestCacheOversizedEntryNotCached(t *testing.T) {
	c := NewTableCache(1024) // smaller than any real table: nothing fits
	c.Put("big", cacheTestTable(1000))
	if _, ok := c.Get("big"); ok {
		t.Error("oversized table cached")
	}
}

func TestCacheAdmitsEntryLargerThanShardShare(t *testing.T) {
	// The budget is global: a table bigger than budget/shards (one day of
	// per-node telemetry vs the default budget) must still be cached, with
	// eviction spilling into other shards to make room.
	big := cacheTestTable(2000)
	budget := TableBytes(big) + TableBytes(big)/2
	c := NewTableCache(budget)
	for i := 0; i < 32; i++ {
		c.Put(fmt.Sprintf("small%d", i), cacheTestTable(10))
	}
	c.Put("big", big)
	if _, ok := c.Get("big"); !ok {
		t.Fatal("table over the per-shard share was not cached")
	}
	if _, bytes := c.Stats(); bytes > budget {
		t.Errorf("resident bytes %d exceed budget %d", bytes, budget)
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewTableCache(1 << 20)
	c.Put("a", cacheTestTable(5))
	c.Flush()
	if _, ok := c.Get("a"); ok {
		t.Error("Flush left entries behind")
	}
	if entries, bytes := c.Stats(); entries != 0 || bytes != 0 {
		t.Errorf("stats after flush = %d, %d", entries, bytes)
	}
}

func TestCacheUpdateSameKey(t *testing.T) {
	c := NewTableCache(1 << 20)
	c.Put("a", cacheTestTable(5))
	bigger := cacheTestTable(50)
	c.Put("a", bigger)
	got, ok := c.Get("a")
	if !ok || got != bigger {
		t.Fatal("update lost")
	}
	if entries, bytes := c.Stats(); entries != 1 || bytes != TableBytes(bigger) {
		t.Errorf("stats after update = %d entries, %d bytes", entries, bytes)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewTableCache(1 << 18)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (w*31+i)%64)
				if _, ok := c.Get(key); !ok {
					c.Put(key, cacheTestTable(20))
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestScanDayTouchSequence pins the read policy ScanDay owns: the first touch
// of a partition streams and admits nothing, the second materializes the
// admit set and caches it, the third is served resident — all three
// delivering the same rows — and a scratch that served a resident table can
// go on to stream another partition without writing into the cached columns.
func TestScanDayTouchSequence(t *testing.T) {
	ds := &Dataset{Dir: t.TempDir(), Name: "x"}
	const rows = 2*blockRows + 17
	ts, cnt, v := make([]int64, rows), make([]int64, rows), make([]float64, rows)
	for i := range ts {
		ts[i], cnt[i], v[i] = int64(i/3), int64(i%11), float64(i)*0.5
	}
	for day := 0; day < 2; day++ {
		err := ds.WriteDay(day, &Table{Cols: []Column{
			{Name: "timestamp", Ints: ts}, {Name: "count", Ints: cnt}, {Name: "v", Floats: v}, {Name: "other", Floats: v},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	c := NewTableCache(1 << 30)
	var sc IterScratch
	for _, tc := range []struct {
		value string
		admit []string
		want  func(i int) float64
	}{
		{"v", []string{"timestamp", "v"}, func(i int) float64 { return v[i] }},
		{"count", nil, func(i int) float64 { return float64(cnt[i]) }}, // integer values widen
	} {
		for touch, want := range []DayScan{{Streamed: true}, {Decoded: 1}, {Hit: true}} {
			n := 0
			how, err := ds.ScanDay(c, 0, tc.admit, []string{"timestamp"}, tc.value, &sc, func(start int, vals []float64) error {
				if start != n {
					return fmt.Errorf("block starts at row %d, want %d", start, n)
				}
				for j, got := range vals {
					if sc.Axes[0][start+j] != ts[start+j] || got != tc.want(start+j) {
						return fmt.Errorf("row %d = (%d, %v)", start+j, sc.Axes[0][start+j], got)
					}
				}
				n += len(vals)
				return nil
			})
			if err != nil || n != rows {
				t.Fatalf("%s touch %d: %d rows, err %v", tc.value, touch, n, err)
			}
			if how.Hit != want.Hit || how.Streamed != want.Streamed || (how.Decoded > 0) != (want.Decoded > 0) {
				t.Errorf("%s touch %d: served as %+v, want the shape of %+v", tc.value, touch, how, want)
			}
		}
	}
	if entries, _ := c.Stats(); entries != 2 {
		t.Errorf("%d cache entries, want one per admit set", entries)
	}
	// sc.Axes now aliases a resident column; streaming day 1 through the same
	// scratch must decode into the scratch's own buffers.
	if _, err := ds.ScanDay(c, 1, nil, []string{"count"}, "v", &sc, func(int, []float64) error { return nil }); err != nil {
		t.Fatal(err)
	}
	tab, _ := c.Get(CacheKey("x", 0, nil))
	for i, got := range tab.Col("timestamp").Ints {
		if got != ts[i] {
			t.Fatalf("resident timestamp column overwritten at row %d: %d, want %d", i, got, ts[i])
		}
	}
}
