// Package query is the online serving tier over the telemetry archive: a
// parallel, cached time-series query engine on top of store.Dataset. It is
// the reproduction's equivalent of the interactive analyst workflow over the
// paper's 8.5 TB parquet archive — range selection, server-side
// downsampling and fleet rollups over the floor topology — behind the HTTP
// endpoints of cmd/queryd. Every windowed read puts a row in the window its
// own timestamp names, so a fleet-wide downsample and a fleet rollup are
// one fold.
//
// The engine prunes day partitions with the store's per-day row-range
// metadata, scans surviving partitions in parallel, and keeps decoded
// tables in the archive's size-bounded LRU so repeated queries skip the
// decode (the measured hot path).
package query

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/source"
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
	// Nodes, when not 0, is the floor size the caller expects: an archive
	// whose run-meta records another is refused (source.ErrNodesMismatch).
	// The rollup floor is always the run-meta's.
	Nodes int
	// Site, when not "", is the floor preset the caller expects: an archive
	// whose run-meta names another is refused. See topology.Preset.
	Site string
	// Workers bounds the parallel partition scan (<= 0: GOMAXPROCS).
	Workers int
	// Cache optionally supplies the decoded-table cache the raw queries and
	// the archive-backed analyses share. Nil gives the archive a private
	// 256 MiB cache.
	Cache *store.TableCache
}

// Engine serves range, downsample and rollup queries over every dataset of
// one archive directory, through the archive's one handle. Safe for
// concurrent use.
type Engine struct {
	cfg   Config
	src   *source.ArchiveSource
	floor *topology.Floor
	// cabinetOf and msbOf map a node ID to its rollup group; built once at
	// Open so a rollup row costs an index, not a topology call.
	cabinetOf, msbOf []int32
	met              *Metrics
}

// Open opens the archive (source.OpenArchive: its run-meta, its one
// directory listing, an index per dataset) and returns an engine over it,
// on the floor the run-meta records.
func Open(cfg Config) (*Engine, error) {
	src, err := source.OpenArchive(source.ArchiveConfig{
		Dir: cfg.Dir, Nodes: cfg.Nodes, Workers: cfg.Workers, Cache: cfg.Cache,
	})
	if err != nil {
		return nil, err
	}
	meta, _ := src.Meta()
	if cfg.Site != "" && cfg.Site != meta.Site {
		return nil, fmt.Errorf("query: site %q contradicts the run-meta of %s (site %q)", cfg.Site, cfg.Dir, meta.Site)
	}
	tcfg, err := topology.PresetScaled(meta.Site, meta.Nodes)
	if err != nil {
		return nil, fmt.Errorf("query: floor: %w", err)
	}
	e := &Engine{cfg: cfg, src: src, met: &Metrics{}}
	if e.floor, err = topology.New(tcfg); err != nil {
		return nil, fmt.Errorf("query: floor: %w", err)
	}
	e.cabinetOf, e.msbOf = make([]int32, e.floor.Nodes()), make([]int32, e.floor.Nodes())
	for n := range e.cabinetOf {
		id := topology.NodeID(n)
		e.cabinetOf[n], e.msbOf[n] = int32(e.floor.Cabinet(id)), int32(e.floor.MSBOf(id))
	}
	return e, nil
}

// Metrics returns the engine's instrumentation counters.
func (e *Engine) Metrics() *Metrics { return e.met }

// Source returns the archive handle the engine reads: the analysis source of
// the same archive, on the same indexes and cache.
func (e *Engine) Source() *source.ArchiveSource { return e.src }

// FlushCache drops every cached table (benchmarks use this to measure the
// cold path).
func (e *Engine) FlushCache() { e.src.Cache().Flush() }

// index resolves a dataset's partition index by name.
func (e *Engine) index(name string) (*store.Index, error) {
	x, ok := e.src.Index(name)
	if !ok {
		return nil, fmt.Errorf("query: dataset %q: %w", name, ErrNotFound)
	}
	return x, nil
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
	// (count/min/max/mean/std), each row in the window its timestamp names:
	// over every node, the fleet rollup's windows, from the pre-aggregates
	// wherever the rollup would take them. 0 returns raw points.
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
	// Preagg marks a rollup — or a fleet-wide range on the pre-aggregation
	// grid — answered entirely from persisted pre-aggregates, the companion
	// each day's file carries after its base partition; RowsScanned then
	// counts accumulator rows, not per-node rows, and the Cache fields count
	// companion reads. False when any day in range has no companion.
	Preagg bool
	// Cached marks a reply served from the handler's reply cache: the scan
	// counts above are then zero and Elapsed is the lookup's.
	Cached  bool
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
	x, err := e.index(req.Dataset)
	if err != nil {
		return nil, err
	}
	days, pruned, err := x.Prune(req.T0, req.T1)
	if err != nil {
		return nil, err
	}
	res := &RangeResult{
		Dataset: req.Dataset, Column: req.Column, Node: req.Node,
		T0: req.T0, T1: req.T1, Step: req.Step,
	}
	e.bookDays(&res.Stats, len(x.Days()), len(days), pruned)
	spec := scanSpec{ds: x.Dataset(), column: req.Column}
	if req.Node >= 0 {
		spec.nodeUse, spec.readNodes = "node filter", true
	}
	if req.Step == 0 {
		res.Points, err = e.rangePoints(ctx, days, spec, req, &res.Stats)
		return res, err
	}
	g, cells, err := e.fold(ctx, x, days, RollupRequest{
		Dataset: req.Dataset, Column: req.Column, Group: GroupFleet,
		T0: req.T0, T1: req.T1, Step: req.Step, Limit: req.Limit,
	}, req.Node, spec, &res.Stats)
	if err != nil {
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

// fold is every windowed read — a range with Step > 0 (the fleet rollup
// under another reply shape) and a rollup alike — and puts each row in the
// window its own timestamp names. It sizes the window axis from day
// metadata, refusing an over-budget one before a partition is read; then
// answers from the persisted pre-aggregates where preaggRollup admits them,
// and scans otherwise. node >= 0 keeps one node's rows, which no
// pre-aggregate holds. Returns the axis and its dense [group][window] cells.
func (e *Engine) fold(ctx context.Context, x *store.Index, days []store.DayMeta,
	req RollupRequest, node int64, spec scanSpec, qs *QueryStats) (grid, []stats.Moments, error) {
	proto := windowSink{node: node}
	groups := 1
	switch req.Group {
	case GroupCabinet:
		proto.groupOf, groups = e.cabinetOf, e.floor.Cabinets()
	case GroupMSB:
		proto.groupOf, groups = e.msbOf, e.floor.MSBs()
	}
	g, err := newGrid(days, req.T0, req.T1, req.Step, groups, req.Limit)
	if err != nil {
		return g, nil, err
	}
	proto.g, proto.cells = g, make([]stats.Moments, groups*g.n)
	if node < 0 {
		if ok, err := e.preaggRollup(ctx, x, days, req, g, proto.cells, qs); ok || err != nil {
			return g, proto.cells, err
		}
		clear(proto.cells) // a pre-aggregate read may give up half way
	}
	return g, proto.cells, e.windowScan(ctx, days, spec, proto, qs)
}

// rangePoints runs the raw (step = 0) scan. Each chunk's sink appends
// straight into what becomes the reply's point slice.
func (e *Engine) rangePoints(ctx context.Context, days []store.DayMeta,
	spec scanSpec, req RangeRequest, qs *QueryStats) ([]Point, error) {
	sinks, err := e.scan(ctx, days, spec, qs, func([]store.DayMeta) sink {
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
		return fmt.Errorf("query: empty time range: t1 %d is not after t0 %d: %w", t1, t0, ErrBadRequest)
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
	names := e.src.Datasets()
	out := make([]DatasetInfo, 0, len(names))
	for _, name := range names {
		x, _ := e.src.Index(name)
		metas, err := x.Metas()
		if err != nil {
			e.met.Errors.Add(1)
			return nil, err
		}
		info := DatasetInfo{Name: name, Days: len(metas)}
		colSeen := map[string]bool{}
		for _, m := range metas {
			info.Rows += int64(m.Rows)
			for _, c := range m.Columns {
				if !colSeen[c.Name] {
					colSeen[c.Name] = true
					info.Columns = append(info.Columns, c.Name)
				}
			}
		}
		info.MinTime, info.MaxTime, info.HasTime = store.Span(metas)
		out = append(out, info)
	}
	return out, nil
}
