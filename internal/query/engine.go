// Package query is the online serving tier over the telemetry archive: a
// sharded, cached time-series query engine on top of store.Dataset. It is
// the reproduction's equivalent of the interactive analyst workflow over the
// paper's 8.5 TB parquet archive — range selection, server-side
// downsampling (reusing the tsagg coarsener) and fleet rollups over the
// floor topology — behind the HTTP endpoints of cmd/queryd.
//
// The engine prunes day partitions with the store's per-day row-range
// metadata, scans surviving partitions in parallel, and keeps decoded
// tables in a size-bounded sharded LRU so repeated queries skip the
// gzip+delta decode (the measured hot path).
package query

import (
	"context"
	"errors"
	"fmt"
	"os"
	"regexp"
	"sort"
	"sync"
	"time"

	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/tsagg"
)

// Sentinel errors; the HTTP layer maps them to status codes.
var (
	// ErrNotFound marks an unknown dataset or column.
	ErrNotFound = errors.New("not found")
	// ErrBadRequest marks an invalid query shape.
	ErrBadRequest = errors.New("bad request")
	// ErrTooLarge marks a result exceeding the configured point budget.
	ErrTooLarge = errors.New("result too large")
)

// Config sizes an Engine.
type Config struct {
	// Dir is the archive directory (as written by summitsim / store).
	Dir string
	// Nodes is the floor size the archive was produced with; required for
	// topology rollups (0 disables them).
	Nodes int
	// Site is the floor preset the archive's cluster instantiates
	// ("" = summit); rollup geometry follows it. See topology.Preset.
	Site string
	// Workers bounds the parallel partition scan (<= 0: GOMAXPROCS).
	Workers int
	// CacheBytes bounds the decoded-table cache (<= 0: 256 MiB). Ignored
	// when Cache is set.
	CacheBytes int64
	// Cache optionally supplies a shared decoded-table cache so the query
	// tier and the archive-backed analyses draw on one byte budget. Nil
	// gives the engine a private cache of CacheBytes.
	Cache *store.TableCache
	// TimeColumns are candidate time-axis column names in priority order
	// (nil: "timestamp", then "begin_time").
	TimeColumns []string
	// ScanMode selects the cold-read strategy; see the constants. The zero
	// value (ScanAuto) is the production choice.
	ScanMode ScanMode
}

// ScanMode selects how cold (uncached) day partitions are read.
type ScanMode int

const (
	// ScanAuto streams first-touch partitions through the store's column
	// iterator — aggregation happens during decode, nothing is
	// materialized or admitted to the cache — and only materializes (and
	// caches) partitions seen repeatedly. Cache-resident tables are always
	// used. Aligned rollups may be answered from persisted pre-aggregates.
	ScanAuto ScanMode = iota
	// ScanMaterialize always decodes whole day tables through the cache —
	// the engine's original read path, kept for cache-backed workloads,
	// benchmarks of the before/after trajectory, and bit-parity tests.
	ScanMaterialize
)

// Engine serves range, downsample and rollup queries over every dataset of
// one archive directory. Safe for concurrent use.
type Engine struct {
	cfg   Config
	floor *topology.Floor
	// cabinetOf and msbOf map a node ID to its rollup group; built once at
	// Open so a rollup row costs an index, not a topology call.
	cabinetOf, msbOf []int32
	cache            *store.TableCache
	met              *Metrics
	datasets         map[string]*datasetState // immutable after Open
}

type datasetState struct {
	ds   *store.Dataset
	days []int

	once    sync.Once // guards meta load
	metaErr error
	meta    map[int]store.DayMeta
}

// dayFileRE matches canonical partition filenames: <dataset>-day<NNNNN>.spwr.
var dayFileRE = regexp.MustCompile(`^(.+)-day\d{5,}\.spwr$`)

// Open scans dir for datasets and returns an engine over them.
func Open(cfg Config) (*Engine, error) {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 256 << 20
	}
	if cfg.TimeColumns == nil {
		// "window" is the time axis of pre-aggregate companion datasets.
		cfg.TimeColumns = []string{"timestamp", "begin_time", "window"}
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("query: open archive: %w", err)
	}
	names := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if m := dayFileRE.FindStringSubmatch(e.Name()); m != nil {
			names[m[1]] = true
		}
	}
	cache := cfg.Cache
	if cache == nil {
		cache = store.NewTableCache(cfg.CacheBytes)
	}
	e := &Engine{
		cfg:      cfg,
		cache:    cache,
		met:      &Metrics{},
		datasets: make(map[string]*datasetState, len(names)),
	}
	if cfg.Nodes > 0 {
		tcfg, err := topology.PresetScaled(cfg.Site, cfg.Nodes)
		if err != nil {
			return nil, fmt.Errorf("query: floor: %w", err)
		}
		if e.floor, err = topology.New(tcfg); err != nil {
			return nil, fmt.Errorf("query: floor: %w", err)
		}
		e.cabinetOf, e.msbOf = make([]int32, e.floor.Nodes()), make([]int32, e.floor.Nodes())
		for n := range e.cabinetOf {
			id := topology.NodeID(n)
			e.cabinetOf[n], e.msbOf[n] = int32(e.floor.Cabinet(id)), int32(e.floor.MSBOf(id))
		}
	}
	for name := range names {
		ds, err := store.NewDataset(cfg.Dir, name)
		if err != nil {
			return nil, err
		}
		days, err := ds.Days()
		if err != nil {
			return nil, err
		}
		e.datasets[name] = &datasetState{ds: ds, days: days}
	}
	return e, nil
}

// Metrics returns the engine's instrumentation counters.
func (e *Engine) Metrics() *Metrics { return e.met }

// Cache returns the engine's decoded-table cache so other archive readers
// (the source layer, notably) can share its byte budget.
func (e *Engine) Cache() *store.TableCache { return e.cache }

// CacheStats returns the resident entry count and byte total of the decoded
// table cache.
func (e *Engine) CacheStats() (entries int, bytes int64) { return e.cache.Stats() }

// CacheBytesMax returns the cache's byte budget.
func (e *Engine) CacheBytesMax() int64 { return e.cache.Max() }

// FlushCache drops every cached table (benchmarks use this to measure the
// cold path).
func (e *Engine) FlushCache() { e.cache.Flush() }

// state resolves a dataset by name.
func (e *Engine) state(name string) (*datasetState, error) {
	st, ok := e.datasets[name]
	if !ok {
		return nil, fmt.Errorf("query: dataset %q: %w", name, ErrNotFound)
	}
	return st, nil
}

// metas lazily loads the per-day row-range metadata of a dataset, in
// parallel over its partitions. Loaded once; partitions are immutable.
func (e *Engine) metas(st *datasetState) (map[int]store.DayMeta, error) {
	st.once.Do(func() {
		metas, err := parallel.MapErr(len(st.days), e.cfg.Workers,
			func(i int) (store.DayMeta, error) {
				return st.ds.DayMeta(st.days[i], e.cfg.TimeColumns...)
			})
		if err != nil {
			st.metaErr = err
			return
		}
		st.meta = make(map[int]store.DayMeta, len(metas))
		for _, m := range metas {
			st.meta[m.Day] = m
		}
	})
	return st.meta, st.metaErr
}

// pruneDays returns the days whose time span intersects [t0, t1). Days
// without a time column are always kept (they cannot be pruned).
func pruneDays(days []int, meta map[int]store.DayMeta, t0, t1 int64) (keep []int, pruned int) {
	for _, day := range days {
		m := meta[day]
		if m.HasTime && (m.MaxTime < t0 || m.MinTime >= t1) {
			pruned++
			continue
		}
		keep = append(keep, day)
	}
	return keep, pruned
}

// table resolves the read path of one day partition. It returns the cached
// table when resident (hit), else a freshly materialized and admitted one —
// except that with stream set, a partition touched for the first time
// (outside ScanMaterialize) yields a nil table: the caller should stream it
// through the column iterator, so single-touch full-day scans are served
// during decode and never churn the cache.
func (e *Engine) table(st *datasetState, day int, stream bool) (tab *store.Table, hit bool, err error) {
	key := store.CacheKey(st.ds.Name, day, nil)
	if tab, ok := e.cache.Get(key); ok {
		e.met.CacheHits.Add(1)
		return tab, true, nil
	}
	e.met.CacheMisses.Add(1)
	if stream && e.cfg.ScanMode != ScanMaterialize && e.cache.Touch(key) < 2 {
		return nil, false, nil
	}
	if tab, err = st.ds.ReadDay(day); err != nil {
		return nil, false, err
	}
	e.met.BytesDecoded.Add(store.TableBytes(tab))
	if n := e.cache.Put(key, tab); n > 0 {
		e.met.CacheEvictions.Add(int64(n))
	}
	return tab, false, nil
}

// metaColumn finds a column in the partition inventory.
func metaColumn(m store.DayMeta, name string) (store.ColumnInfo, bool) {
	for _, c := range m.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return store.ColumnInfo{}, false
}

// RangeRequest selects one column of one dataset over [T0, T1).
type RangeRequest struct {
	Dataset string
	Column  string
	// Node filters rows by the "node" column; < 0 selects every node.
	Node int64
	// T0/T1 bound the half-open time range.
	T0, T1 int64
	// Step > 0 downsamples server-side into Step-second windows
	// (count/min/max/mean/std, assigned by the tsagg coarsener's rule); 0
	// returns raw points.
	Step int64
	// Limit > 0 is the most points or windows the caller will take: the
	// scan stops with ErrTooLarge once the answer would exceed it, instead
	// of building an answer the caller then discards.
	Limit int
}

// Point is one raw observation of a range query.
type Point struct {
	T int64
	V float64
}

// QueryStats reports what one query cost.
type QueryStats struct {
	DaysTotal   int
	DaysScanned int
	DaysPruned  int
	RowsScanned int64
	CacheHits   int64
	CacheMisses int64
	// Preagg marks a rollup answered entirely from persisted
	// pre-aggregates; RowsScanned then counts accumulator rows, not
	// per-node rows.
	Preagg  bool
	Elapsed time.Duration
}

// RangeResult is a range query's answer: Points when Step == 0, Windows
// when Step > 0.
type RangeResult struct {
	Dataset string
	Column  string
	Node    int64
	T0, T1  int64
	Step    int64
	Points  []Point
	Windows []tsagg.WindowStat
	Stats   QueryStats
}

// Range executes a range query: prune partitions by day metadata, scan the
// survivors in parallel, optionally coarsen.
func (e *Engine) Range(ctx context.Context, req RangeRequest) (*RangeResult, error) {
	start := time.Now()
	e.met.RangeQueries.Add(1)
	res, err := e.rangeQuery(ctx, req)
	e.met.ScanLatency.Observe(time.Since(start))
	if err != nil {
		e.met.Errors.Add(1)
		return nil, err
	}
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

func (e *Engine) rangeQuery(ctx context.Context, req RangeRequest) (*RangeResult, error) {
	if err := validateRange(req.T0, req.T1, req.Step); err != nil {
		return nil, err
	}
	if req.Column == "" {
		return nil, fmt.Errorf("query: missing column: %w", ErrBadRequest)
	}
	st, err := e.state(req.Dataset)
	if err != nil {
		return nil, err
	}
	meta, err := e.metas(st)
	if err != nil {
		return nil, err
	}
	res := &RangeResult{
		Dataset: req.Dataset, Column: req.Column, Node: req.Node,
		T0: req.T0, T1: req.T1, Step: req.Step,
	}
	scanDays, pruned := pruneDays(st.days, meta, req.T0, req.T1)
	e.bookDays(&res.Stats, len(st.days), len(scanDays), pruned)
	spec := scanSpec{dataset: req.Dataset, column: req.Column}
	if req.Node >= 0 {
		spec.nodeUse, spec.readNodes = "node filter", true
	}
	if req.Step == 0 {
		res.Points, err = e.rangePoints(ctx, st, meta, scanDays, spec, req, &res.Stats)
		return res, err
	}
	g, err := newGrid(scanDays, meta, req.T0, req.T1, req.Step, 1, req.Limit)
	if err != nil {
		return nil, err
	}
	cells := make([]stats.Moments, g.n)
	proto := windowSink{g: g, cells: cells, node: req.Node, late: true}
	if err := e.windowScan(ctx, st, meta, scanDays, spec, proto, &res.Stats); err != nil {
		return nil, err
	}
	res.Windows = make([]tsagg.WindowStat, 0, g.n)
	for i := range cells {
		if m := &cells[i]; m.N > 0 {
			res.Windows = append(res.Windows, tsagg.WindowStat{
				T: g.w0 + int64(i)*g.step, Count: m.N,
				Min: m.Min, Max: m.Max, Mean: m.Mean(), Std: m.Std(),
			})
		}
	}
	return res, nil
}

// rangePoints runs the raw (step = 0) scan. Each chunk's sink appends
// straight into what becomes the reply's point slice.
func (e *Engine) rangePoints(ctx context.Context, st *datasetState, meta map[int]store.DayMeta, days []int,
	spec scanSpec, req RangeRequest, qs *QueryStats) ([]Point, error) {
	sinks, err := e.scan(ctx, st, meta, days, spec, qs, func([]int) sink {
		return &pointSink{t0: req.T0, t1: req.T1, node: req.Node, limit: req.Limit}
	})
	if err != nil {
		return nil, err
	}
	var pts []Point
	for i, s := range sinks {
		if i == 0 {
			pts = s.(*pointSink).pts
		} else {
			pts = append(pts, s.(*pointSink).pts...)
		}
	}
	if req.Limit > 0 && len(pts) > req.Limit {
		return nil, errTooManyPoints(req.Limit)
	}
	return pts, nil
}

// bookDays records a query's partition pruning in its stats and the
// engine counters.
func (e *Engine) bookDays(qs *QueryStats, total, scanned, pruned int) {
	qs.DaysTotal, qs.DaysScanned, qs.DaysPruned = total, scanned, pruned
	e.met.DaysScanned.Add(int64(scanned))
	e.met.DaysPruned.Add(int64(pruned))
}

func validateRange(t0, t1, step int64) error {
	if t1 <= t0 {
		return fmt.Errorf("query: empty time range [%d, %d): %w", t0, t1, ErrBadRequest)
	}
	if step < 0 {
		return fmt.Errorf("query: negative step %d: %w", step, ErrBadRequest)
	}
	return nil
}

// DatasetInfo summarizes one archived dataset for /api/v1/datasets.
type DatasetInfo struct {
	Name    string
	Days    int
	Rows    int64
	HasTime bool
	MinTime int64
	MaxTime int64
	Columns []string
}

// Datasets lists every dataset with its shape and covered time span,
// sorted by name.
func (e *Engine) Datasets() ([]DatasetInfo, error) {
	e.met.DatasetQueries.Add(1)
	out := make([]DatasetInfo, 0, len(e.datasets))
	for name, st := range e.datasets {
		meta, err := e.metas(st)
		if err != nil {
			e.met.Errors.Add(1)
			return nil, err
		}
		info := DatasetInfo{Name: name, Days: len(st.days)}
		colSeen := map[string]bool{}
		for _, day := range st.days {
			m := meta[day]
			info.Rows += int64(m.Rows)
			for _, c := range m.Columns {
				if !colSeen[c.Name] {
					colSeen[c.Name] = true
					info.Columns = append(info.Columns, c.Name)
				}
			}
			if m.HasTime {
				if !info.HasTime || m.MinTime < info.MinTime {
					info.MinTime = m.MinTime
				}
				if !info.HasTime || m.MaxTime > info.MaxTime {
					info.MaxTime = m.MaxTime
				}
				info.HasTime = true
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
