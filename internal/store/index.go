package store

import (
	"sort"
	"sync"

	"repro/internal/parallel"
)

// Index is the partition index of one dataset: the day list found at open
// and the per-day row-range metadata, loaded on first use. Every reader of
// an archive — the query engine, the analysis source — prunes through one of
// these instead of keeping its own day list and metadata map. Safe for
// concurrent use.
type Index struct {
	ds       *Dataset
	days     []int
	workers  int
	timeCols []string

	mu    sync.Mutex
	metas []DayMeta // parallel to days; nil until a load succeeds
}

// OpenIndexes lists dir once and returns the partition index of every
// dataset holding a partition there, by name. It reads no partition and
// creates nothing; a missing dir is an fs.ErrNotExist error. workers bounds
// each index's parallel metadata load (<= 0: GOMAXPROCS); timeCols are the
// candidate time columns, as for Dataset.DayMeta.
func OpenIndexes(dir string, workers int, timeCols ...string) (map[string]*Index, error) {
	parts, err := partitions(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Index, len(parts))
	for name, days := range parts {
		ds, err := NewDataset(dir, name)
		if err != nil {
			return nil, err
		}
		sort.Ints(days)
		out[name] = &Index{ds: ds, days: days, workers: workers, timeCols: timeCols}
	}
	return out, nil
}

// Dataset returns the indexed dataset.
func (x *Index) Dataset() *Dataset { return x.ds }

// Days returns the day indices present at open, ascending. Read-only.
func (x *Index) Days() []int { return x.days }

// Metas returns the metadata of every partition, parallel to Days, loading
// it in parallel over the partitions on first use. Only a complete load is
// kept (partitions are immutable once written): a failed one — a partition
// still being written, say — is reported, naming the partition, and retried
// by the next call.
func (x *Index) Metas() ([]DayMeta, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.metas == nil && len(x.days) > 0 {
		metas, err := parallel.MapErr(len(x.days), x.workers, func(i int) (DayMeta, error) {
			return x.ds.DayMeta(x.days[i], x.timeCols...)
		})
		if err != nil {
			return nil, err
		}
		x.metas = metas
	}
	return x.metas, nil
}

// Prune returns the partitions whose time span intersects [t0, t1), in day
// order, and how many it dropped. Partitions without a time span cannot be
// pruned and are always kept.
func (x *Index) Prune(t0, t1 int64) (keep []DayMeta, pruned int, err error) {
	metas, err := x.Metas()
	if err != nil {
		return nil, 0, err
	}
	for _, m := range metas {
		if m.HasTime && (m.MaxTime < t0 || m.MinTime >= t1) {
			pruned++
			continue
		}
		keep = append(keep, m)
	}
	return keep, pruned, nil
}

// Span is the time span covered by the partitions that have one; ok is
// false when none has.
func Span(metas []DayMeta) (lo, hi int64, ok bool) {
	for _, m := range metas {
		if m.HasTime {
			if !ok {
				lo, hi, ok = m.MinTime, m.MaxTime, true
			}
			lo, hi = min(lo, m.MinTime), max(hi, m.MaxTime)
		}
	}
	return lo, hi, ok
}

// Column finds a column in the partition's inventory.
func (m DayMeta) Column(name string) (ColumnInfo, bool) {
	for _, c := range m.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return ColumnInfo{}, false
}
