package query

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/tsagg"
)

// This file is what the engine adds on top of the store's day scanner
// (store.Dataset.ScanDay, which decides how a partition is read): column
// validation, and the two sinks every range and rollup query folds the
// delivered runs of consecutive rows into: points (step = 0) or dense
// per-window accumulators (step > 0). Neither sink keeps per-row samples of
// a windowed query, so its allocation is O(windows), not O(rows).

// block is a run of consecutive rows of one day partition. Everything in it
// may be scratch: sinks fold it during consume and retain nothing.
type block struct {
	times  []int64
	nodes  []int64 // nil unless the query reads the node axis
	vals   []float64
	sorted bool // the partition's time column is non-decreasing
}

// sink folds blocks in row order; each parallel chunk of days owns one.
type sink interface{ consume(b block) error }

// scanSpec names what one query reads from each partition.
type scanSpec struct {
	ds     *store.Dataset
	column string
	// nodeUse names the feature that needs a per-node dataset ("" for
	// none), for the error on datasets without a node column; readNodes
	// says whether the sink reads the axis or only requires it to exist.
	nodeUse   string
	readNodes bool
}

// chunkScan is one chunk's cost, outcome and reusable read scratch.
type chunkScan struct {
	rows, hits, misses int64
	err                error
	iter               store.IterScratch
}

// scan splits days into one chunk per worker, has newSink make each chunk's
// sink (called serially, in chunk order), feeds every partition of a chunk
// to its sink, chunks in parallel, and books the cost into qs. Rows count
// the blocks a sink accepted, so a query refused by its budget reports how
// far it got.
func (e *Engine) scan(ctx context.Context, days []store.DayMeta,
	spec scanSpec, qs *QueryStats, newSink func(chunk []store.DayMeta) sink) ([]sink, error) {
	workers := e.cfg.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	chunks := parallel.SplitChunks(len(days), workers)
	sinks := make([]sink, len(chunks))
	for i, c := range chunks {
		sinks[i] = newSink(days[c.Start:c.End])
	}
	outs := parallel.Map(len(chunks), workers, func(i int) *chunkScan {
		out := &chunkScan{}
		for _, m := range days[chunks[i].Start:chunks[i].End] {
			if out.err = ctx.Err(); out.err != nil {
				break
			}
			if out.err = e.visitDay(m, spec, out, sinks[i]); out.err != nil {
				break
			}
		}
		return out
	})
	var err error
	for _, o := range outs {
		qs.RowsScanned += o.rows
		qs.CacheHits += o.hits
		qs.CacheMisses += o.misses
		if err == nil {
			err = o.err
		}
	}
	e.met.RowsScanned.Add(qs.RowsScanned)
	return sinks, err
}

// visitDay validates the query's columns against the partition's inventory
// and hands its rows to s through the store's day scanner, admitting
// whole-day tables (the engine's cache entries are shared by every column of
// a dataset).
func (e *Engine) visitDay(m store.DayMeta, spec scanSpec, out *chunkScan, s sink) error {
	if m.TimeColumn == "" {
		return fmt.Errorf("query: dataset %q has no time column (day %d): %w", spec.ds.Name, m.Day, ErrBadRequest)
	}
	if c, ok := m.Column(spec.column); !ok {
		return fmt.Errorf("query: dataset %q has no column %q: %w", spec.ds.Name, spec.column, ErrNotFound)
	} else if c.Str {
		return fmt.Errorf("query: column %q is string-typed, not numeric: %w", spec.column, ErrBadRequest)
	}
	axes := []string{m.TimeColumn, "node"}[:1]
	if spec.nodeUse != "" {
		if c, ok := m.Column("node"); !ok || !c.Int {
			return fmt.Errorf("query: dataset %q has no node column; %s unsupported: %w",
				spec.ds.Name, spec.nodeUse, ErrBadRequest)
		}
		if spec.readNodes {
			axes = axes[:2]
		}
	}
	b := block{sorted: m.TimeSorted}
	how, err := spec.ds.ScanDay(e.src.Cache(), m.Day, nil, axes, spec.column, &out.iter, func(start int, vals []float64) error {
		end := start + len(vals)
		b.times, b.vals = out.iter.Axes[0][start:end], vals
		if spec.readNodes {
			b.nodes = out.iter.Axes[1][start:end]
		}
		if err := s.consume(b); err != nil {
			return err
		}
		out.rows += int64(len(vals))
		return nil
	})
	if how.Hit {
		out.hits++
		e.met.CacheHits.Add(1)
	} else {
		out.misses++
		e.met.CacheMisses.Add(1)
	}
	if how.Streamed {
		e.met.IterScans.Add(1)
	}
	e.met.BytesDecoded.Add(how.Decoded)
	e.met.CacheEvictions.Add(int64(how.Evictions))
	return err
}

// searchTime returns the first index of the sorted ts holding a value >= t.
// It gallops from the front before bisecting: a window cut lands a few rows
// ahead far more often than mid-slice.
func searchTime(ts []int64, t int64) int {
	b := 1
	for b <= len(ts) && ts[b-1] < t {
		b *= 2
	}
	lo, hi := b/2, min(b-1, len(ts))
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); ts[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// --- points sink (step = 0) ---

// pointSink collects the matching rows of one chunk as reply points.
type pointSink struct {
	t0, t1 int64
	node   int64 // >= 0: keep only this node's rows
	limit  int   // > 0: refuse the point after this many
	pts    []Point
}

func errTooManyPoints(limit int) error {
	return fmt.Errorf("query: more than %d raw points; pass a coarser step: %w", limit, ErrTooLarge)
}

func (s *pointSink) consume(b block) error {
	if b.sorted && b.nodes == nil {
		// The range is one row span: size it before touching a value.
		lo := searchTime(b.times, s.t0)
		hi := lo + searchTime(b.times[lo:], s.t1)
		if s.limit > 0 && len(s.pts)+hi-lo > s.limit {
			return errTooManyPoints(s.limit)
		}
		s.pts = slices.Grow(s.pts, hi-lo)
		for i := lo; i < hi; i++ {
			s.pts = append(s.pts, Point{T: b.times[i], V: b.vals[i]})
		}
		return nil
	}
	for i, t := range b.times {
		if t < s.t0 || t >= s.t1 || (b.nodes != nil && b.nodes[i] != s.node) {
			continue
		}
		if s.limit > 0 && len(s.pts) >= s.limit {
			return errTooManyPoints(s.limit)
		}
		s.pts = append(s.pts, Point{T: t, V: b.vals[i]})
	}
	return nil
}

// --- window sink (step > 0) ---

// maxCells bounds the dense accumulator of a query that carries no budget
// of its own (direct engine callers): 16 Mi cells, 640 MB.
const maxCells = 1 << 24

// grid is the dense window axis of one query: window i starts at w0+i*step.
// It spans only what the scanned days can hold, so t0/t1 — the query range
// clipped to those days — bound every row the sinks accept.
type grid struct {
	w0, step int64
	n        int
	t0, t1   int64
}

// newGrid sizes the window axis from day metadata alone and refuses it,
// before any partition is read, when windows x groups exceeds the budget.
func newGrid(days []store.DayMeta, t0, t1, step int64, groups, limit int) (grid, error) {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, m := range days {
		if m.HasTime {
			lo, hi = min(lo, m.MinTime), max(hi, m.MaxTime)
		}
	}
	lo, hi = max(lo, t0), min(hi, t1-1)
	g := grid{step: step}
	if hi < lo {
		return g, nil // no timed rows in range: an empty axis filters everything
	}
	if lo < math.MinInt64+step || hi > math.MaxInt64-step {
		return g, fmt.Errorf("query: time span [%d, %d] leaves no room for step %d s windows: %w", lo, hi, step, ErrBadRequest)
	}
	g.w0 = lo - tsagg.FloorMod(lo, step)
	n := (uint64(hi)-uint64(g.w0))/uint64(step) + 1
	if limit <= 0 {
		limit = maxCells
	}
	if n > uint64(limit/groups) {
		return g, fmt.Errorf("query: %d windows x %d groups over the %d budget; pass a coarser step: %w",
			n, groups, limit, ErrTooLarge)
	}
	g.n, g.t0, g.t1 = int(n), lo, hi+1
	return g, nil
}

// seamRow is one row a chunk could not place on its own: its window may
// already hold rows of an earlier chunk.
type seamRow struct {
	t int64
	g int32
	v float64
}

// windowSink folds rows into the query's dense [group][window] accumulators,
// each row into the window its own timestamp names. Every chunk's sink
// writes the same cells slice; the seam rule keeps their writes disjoint and
// the result identical to a serial scan.
type windowSink struct {
	g       grid
	cells   []stats.Moments // [group*g.n + window]
	node    int64           // >= 0: keep only this node's rows
	groupOf []int32         // node -> group; nil puts every row in group 0
	// seamHi is the highest window an earlier chunk's days can reach, known
	// from their metadata. A row landing at or below it is kept raw and
	// replayed after the parallel scan, in chunk order, so a window that
	// straddles chunks accumulates in row order at every worker count.
	seamHi int
	raw    []seamRow
}

// add places one accepted row.
func (s *windowSink) add(t int64, g int, v float64) {
	if w := int((t - s.g.w0) / s.g.step); w <= s.seamHi {
		s.raw = append(s.raw, seamRow{t: t, g: int32(g), v: v})
	} else {
		s.cells[g*s.g.n+w].Add(v)
	}
}

func (s *windowSink) consume(b block) error {
	if b.sorted && b.nodes == nil {
		s.spans(b)
		return nil
	}
	for i, t := range b.times {
		if t < s.g.t0 || t >= s.g.t1 || (s.node >= 0 && b.nodes[i] != s.node) {
			continue
		}
		g := 0
		if s.groupOf != nil {
			n := b.nodes[i]
			if n < 0 || n >= int64(len(s.groupOf)) {
				return fmt.Errorf("query: node %d outside the %d-node floor: %w",
					n, len(s.groupOf), ErrBadRequest)
			}
			g = int(s.groupOf[n])
		}
		s.add(t, g, b.vals[i])
	}
	return nil
}

// spans is the fast form for a sorted block read without the node axis: the
// accepted rows are one span found by bisection, cut at window boundaries,
// and each cut is a contiguous run of values for one cell — folded four
// windows at a time by the interleaved Welford kernel. The block is sorted,
// so every cut opens a later window than the one before: the four chains
// never share a cell.
func (s *windowSink) spans(b block) {
	lo := searchTime(b.times, s.g.t0)
	hi := lo + searchTime(b.times[lo:], s.g.t1)
	var cells [4]*stats.Moments
	var runs [4][]float64
	k := 0
	for i := lo; i < hi; {
		w := int((b.times[i] - s.g.w0) / s.g.step)
		end := i + searchTime(b.times[i:hi], s.g.w0+int64(w+1)*s.g.step)
		if w <= s.seamHi {
			for j := i; j < end; j++ {
				s.raw = append(s.raw, seamRow{t: b.times[j], v: b.vals[j]})
			}
		} else {
			cells[k], runs[k] = &s.cells[w], b.vals[i:end]
			if k++; k == len(cells) {
				stats.AddSlices4(&cells, &runs)
				k = 0
			}
		}
		i = end
	}
	for j := 0; j < k; j++ {
		cells[j].AddSlice(runs[j])
	}
}

// windowScan folds every matching row of days into proto's cells, one copy
// of proto (filter, grouping) per parallel chunk.
func (e *Engine) windowScan(ctx context.Context, days []store.DayMeta,
	spec scanSpec, proto windowSink, qs *QueryStats) error {
	proto.seamHi = -1
	seam := -1
	sinks, err := e.scan(ctx, days, spec, qs, func(chunk []store.DayMeta) sink {
		s := proto
		s.seamHi = seam
		for _, m := range chunk {
			if m.HasTime {
				seam = max(seam, int((min(m.MaxTime, s.g.t1-1)-s.g.w0)/s.g.step))
			}
		}
		return &s
	})
	if err != nil {
		return err
	}
	for _, s := range sinks {
		for _, r := range s.(*windowSink).raw {
			proto.add(r.t, int(r.g), r.v)
		}
	}
	return nil
}
