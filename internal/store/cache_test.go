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
	c.put("a", tab)
	got, ok := c.get("a")
	if !ok || got != tab {
		t.Fatal("cached table lost")
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("phantom hit")
	}
	entries, bytes := c.Stats()
	if entries != 1 || bytes != TableBytes(tab) {
		t.Errorf("stats = %d entries, %d bytes", entries, bytes)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	// Budget of 32 tables, 200 inserted: eviction must kick in and the
	// byte accounting must stay under budget throughout.
	budget := 32 * TableBytes(cacheTestTable(100))
	c := NewTableCache(budget)
	evicted := 0
	for i := 0; i < 200; i++ {
		evicted += c.put(fmt.Sprintf("k%d", i), cacheTestTable(100))
	}
	if evicted != 200-32 {
		t.Errorf("%d evictions, want %d", evicted, 200-32)
	}
	if entries, bytes := c.Stats(); entries != 32 || bytes > budget {
		t.Errorf("%d entries of %d bytes, want 32 within the budget %d", entries, bytes, budget)
	}
}

// TestCacheEvictsLeastRecentlyUsedFirst pins the eviction order across the
// whole budget: with k0…k7 filling it and k0 read since, admitting k8 must
// evict exactly k1, the least recently used table, and nothing else.
func TestCacheEvictsLeastRecentlyUsedFirst(t *testing.T) {
	c := NewTableCache(8 * TableBytes(cacheTestTable(100)))
	for i := 0; i < 8; i++ {
		c.put(fmt.Sprintf("k%d", i), cacheTestTable(100))
	}
	if _, ok := c.get("k0"); !ok {
		t.Fatal("k0 not resident in a cache sized for eight tables")
	}
	if n := c.put("k8", cacheTestTable(100)); n != 1 {
		t.Errorf("admitting k8 evicted %d tables, want 1", n)
	}
	for i := 0; i <= 8; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, ok := c.get(key); ok == (i == 1) {
			t.Errorf("%s resident = %v, want only k1 evicted", key, ok)
		}
	}
}

func TestCacheOversizedEntryNotCached(t *testing.T) {
	c := NewTableCache(1024) // smaller than any real table: nothing fits
	c.put("big", cacheTestTable(1000))
	if _, ok := c.get("big"); ok {
		t.Error("oversized table cached")
	}
}

func TestCacheAdmitsEntryUpToTheWholeBudget(t *testing.T) {
	// One day of per-node telemetry decodes to tens of megabytes: a table
	// that fills the whole budget must still be cached, by evicting
	// everything else.
	big := cacheTestTable(2000)
	budget := TableBytes(big)
	c := NewTableCache(budget)
	for i := 0; i < 32; i++ {
		c.put(fmt.Sprintf("small%d", i), cacheTestTable(10))
	}
	if n := c.put("big", big); n != 32 {
		t.Errorf("admitting the budget-sized table evicted %d tables, want all 32", n)
	}
	if _, ok := c.get("big"); !ok {
		t.Fatal("table the size of the budget was not cached")
	}
	if entries, bytes := c.Stats(); entries != 1 || bytes != budget {
		t.Errorf("stats = %d entries, %d bytes, want 1 entry of %d", entries, bytes, budget)
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewTableCache(1 << 20)
	c.put("a", cacheTestTable(5))
	c.Flush()
	if _, ok := c.get("a"); ok {
		t.Error("Flush left entries behind")
	}
	if entries, bytes := c.Stats(); entries != 0 || bytes != 0 {
		t.Errorf("stats after flush = %d, %d", entries, bytes)
	}
}

func TestCacheUpdateSameKey(t *testing.T) {
	c := NewTableCache(1 << 20)
	c.put("a", cacheTestTable(5))
	bigger := cacheTestTable(50)
	c.put("a", bigger)
	got, ok := c.get("a")
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
				if _, ok := c.get(key); !ok {
					c.put(key, cacheTestTable(20))
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
	tab, _ := c.get(cacheKey("x", 0, nil))
	for i, got := range tab.Col("timestamp").Ints {
		if got != ts[i] {
			t.Fatalf("resident timestamp column overwritten at row %d: %d, want %d", i, got, ts[i])
		}
	}
}
