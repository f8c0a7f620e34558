package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/store"
)

// classMetric names the engine-level layer metric of each op class.
var classMetric = map[string]string{
	clsRangeFleet:    "query.range_fleet_ms",
	clsRangeNode:     "query.range_node_ms",
	clsRollupOffgrid: "query.rollup_scan_ms",
	clsRollupXday:    "query.rollup_xday_ms",
	clsRollupPreagg:  "query.rollup_preagg_ms",
	clsClusterRange:  "query.range_cluster_ms",
	clsRangeCached:   "query.range_cached_ms",
}

const (
	// probesPerClass is how many operations of each class the engine-level
	// probes time; probeRepeats how often a store or source call is timed.
	probesPerClass = 3
	probeRepeats   = 3
	// replayOpsScan and replayOpsDash bound the handler and wire replays,
	// which run the list three times over.
	replayOpsScan = 8
	replayOpsDash = 200
)

// traceQuery opens the archive in process the way queryd does — one cache
// shared by the engine and the analysis source — and times each layer of
// the read path from outside: engine calls per op class, the handler into
// a recorder, the same requests over loopback HTTP, and the store or
// analysis calls beneath.
func (h *harness) traceQuery(res *runResult, tr *tracer, archive string, cacheMB int, ops []queryOp) error {
	scan := res.Workload == wScan
	cache := store.NewTableCache(int64(cacheMB) << 20)
	arc, err := source.OpenArchive(source.ArchiveConfig{Dir: archive, Nodes: h.sz.ArchiveNodes, Cache: cache})
	if err != nil {
		return err
	}
	meta, err := arc.Meta()
	if err != nil {
		return err
	}
	eng, err := query.Open(query.Config{Dir: archive, Nodes: h.sz.ArchiveNodes, Site: meta.Site, Cache: cache})
	if err != nil {
		return err
	}
	handler, err := query.NewFleetHandler([]query.Cluster{{Engine: eng, Source: arc}}, query.ServerConfig{})
	if err != nil {
		return err
	}
	serve := func(op queryOp) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, op.URL, nil))
		return rec
	}
	for _, op := range warmOps(res.Workload, h.sz) {
		if rec := serve(op); rec.Code != http.StatusOK {
			return fmt.Errorf("in-process warm-up %s: status %d", op.URL, rec.Code)
		}
	}

	if err := probeClasses(h.ctx, tr, res, eng, ops, scan); err != nil {
		return err
	}

	// The handler replay, untraced then traced, then the same list over
	// loopback HTTP. Overheads are taken against each reply's own
	// stats.elapsed_us, the engine time of that very request.
	n := replayOpsDash
	if scan {
		n = replayOpsScan
	}
	if n > len(ops) {
		n = len(ops)
	}
	list := ops[:n]
	replay := func(tr *tracer) (time.Duration, []float64, float64) {
		var overheadMS []float64
		var bytesOut float64
		start := time.Now()
		for _, op := range list {
			root := tr.begin("bench." + res.Workload + ".op")
			opStart := time.Now()
			id := tr.begin("query.handler.ServeHTTP")
			rec := serve(op)
			tr.end(id)
			wall := time.Since(opStart)
			tr.end(root)
			bytesOut += float64(rec.Body.Len())
			if e, ok := elapsedOf(rec.Body.Bytes()); ok {
				overheadMS = append(overheadMS, ms(wall-e))
			}
		}
		return time.Since(start), overheadMS, bytesOut / float64(len(list))
	}
	untraced, _, _ := replay(nil)
	traced, httpMS, bytesPerOp := replay(tr)
	res.set("bench.trace_overhead_share", overhead(untraced, traced), 0)
	res.set("query.http_overhead_ms", stats.Median(httpMS), len(httpMS))
	res.set("query.http_bytes_per_op", bytesPerOp, len(list))

	wireMS, err := replayOverWire(h.ctx, tr, handler, list)
	if err != nil {
		return err
	}
	res.set("query.wire_overhead_ms", stats.Median(wireMS)-stats.Median(httpMS), len(wireMS))

	if scan {
		return probeStoreReads(tr, res, archive)
	}
	return probeAnalyses(tr, res, arc, meta)
}

// elapsedOf extracts stats.elapsed_us from a range or rollup reply.
func elapsedOf(body []byte) (time.Duration, bool) {
	const key = `"elapsed_us":`
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	us, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(us) * time.Microsecond, true
}

// engineCall runs op against the engine directly and returns the query's
// cost and how many points, windows or group windows it produced.
func engineCall(ctx context.Context, eng *query.Engine, op queryOp) (query.QueryStats, int, error) {
	if op.Kind == "rollup" {
		r, err := eng.Rollup(ctx, query.RollupRequest{Dataset: op.Dataset, Column: op.Column,
			Group: query.GroupBy(op.Group), T0: op.T0, T1: op.T1, Step: op.Step})
		if err != nil {
			return query.QueryStats{}, 0, err
		}
		points := 0
		for _, s := range r.Series {
			points += len(s.Windows)
		}
		return r.Stats, points, nil
	}
	r, err := eng.Range(ctx, query.RangeRequest{Dataset: op.Dataset, Column: op.Column,
		Node: op.Node, T0: op.T0, T1: op.T1, Step: op.Step})
	if err != nil {
		return query.QueryStats{}, 0, err
	}
	return r.Stats, len(r.Points) + len(r.Windows), nil
}

// probeClasses times Engine.Range / Engine.Rollup per op class: cold (cache
// flushed before each call) on query-scan, after two warm-up touches on
// query-dash — the state each class is served from in the end-to-end run.
func probeClasses(ctx context.Context, tr *tracer, res *runResult, eng *query.Engine, ops []queryOp, scan bool) error {
	perClass := map[string][]float64{}
	var rows, points int64
	var pruned, days int
	for _, op := range ops {
		metric, ok := classMetric[op.Class]
		if !ok || len(perClass[metric]) >= probesPerClass {
			continue
		}
		if scan {
			eng.FlushCache()
		} else {
			for touch := 0; touch < 2; touch++ {
				if _, _, err := engineCall(ctx, eng, op); err != nil {
					return err
				}
			}
		}
		root := tr.begin("bench.probe." + op.Class)
		id := tr.begin("query.Engine." + op.Kind)
		start := time.Now()
		st, n, err := engineCall(ctx, eng, op)
		wall := time.Since(start)
		tr.end(id)
		tr.end(root)
		if err != nil {
			return err
		}
		perClass[metric] = append(perClass[metric], ms(wall))
		rows, points = rows+st.RowsScanned, points+int64(n)
		pruned, days = pruned+st.DaysPruned, days+st.DaysTotal
	}
	for metric, xs := range perClass {
		res.set(metric, stats.Median(xs), len(xs))
	}
	if points > 0 {
		res.set("query.rows_per_point", float64(rows)/float64(points), int(points))
	}
	if days > 0 {
		res.set("query.days_pruned_share", float64(pruned)/float64(days), days)
	}
	return nil
}

// replayOverWire serves handler on a loopback listener and fetches every op
// through a real HTTP round trip, returning each reply's wall time minus
// its own engine time, in ms.
func replayOverWire(ctx context.Context, tr *tracer, handler http.Handler, list []queryOp) ([]float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1) // one send, from the Serve goroutine
	go func() { served <- srv.Serve(ln) }()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	var out []float64
	var ferr error
	for _, op := range list {
		root := tr.begin("bench.wire.op")
		id := tr.begin("net/http.roundtrip")
		r := fetch(ctx, client, "http://"+ln.Addr().String()+op.URL)
		tr.end(id)
		tr.end(root)
		if r.err != nil || r.status != http.StatusOK {
			ferr = fmt.Errorf("loopback %s: status %d: %w", op.URL, r.status, r.err)
			break
		}
		if e, ok := elapsedOf(r.body); ok {
			out = append(out, ms(r.latency-e))
		}
	}
	client.CloseIdleConnections()
	shutdownCtx, cancel := context.WithTimeout(ctx, termGrace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && ferr == nil {
		ferr = err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) && ferr == nil {
		ferr = err
	}
	return out, ferr
}

// medianMS runs fn probeRepeats times inside spans and returns the median
// wall time in ms.
func medianMS(tr *tracer, name string, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < probeRepeats; i++ {
		id := tr.begin(name)
		start := time.Now()
		err := fn()
		xs = append(xs, ms(time.Since(start)))
		tr.end(id)
		if err != nil {
			return 0, err
		}
	}
	return stats.Median(xs), nil
}

// probeStoreReads times the store's four read entry points on the first
// node-power day, over the three columns a query decodes.
func probeStoreReads(tr *tracer, res *runResult, archive string) error {
	root := tr.begin("bench.query-scan.store-probes")
	defer tr.end(root)
	ds, err := store.NewDataset(archive, nodeDataset)
	if err != nil {
		return err
	}
	cols := []string{"timestamp", "node", nodeColumn}
	rows := 0
	probes := []struct {
		metric, span string
		fn           func() error
	}{
		{"store.day_meta_us", "store.Dataset.DayMeta", func() error {
			m, err := ds.DayMeta(0)
			rows = m.Rows
			return err
		}},
		{"store.read_day_ms", "store.Dataset.ReadDay", func() error {
			_, err := ds.ReadDay(0)
			return err
		}},
		{"store.read_cols_ms", "store.Dataset.ReadDayColumns", func() error {
			_, err := ds.ReadDayColumns(0, cols)
			return err
		}},
		{"store.iter_cols_ms", "store.Dataset.IterDayColumns", func() error {
			var sc store.IterScratch
			sum := 0.0
			_, err := ds.IterDayColumns(0, cols[:2], nodeColumn, &sc, func(_ int, vals []float64) error {
				for _, v := range vals {
					sum += v
				}
				return nil
			})
			return err
		}},
	}
	for _, p := range probes {
		v, err := medianMS(tr, p.span, p.fn)
		if err != nil {
			return err
		}
		if p.metric == "store.day_meta_us" {
			v *= usPerMS
		}
		res.set(p.metric, v, probeRepeats)
	}
	if readMS := res.Metrics["store.read_day_ms"].Value; readMS > 0 {
		res.set("store.decode_rows_per_s", float64(rows)/(readMS*float64(time.Millisecond)/float64(time.Second)), rows)
	}
	return nil
}

// probeAnalyses times the analysis source calls behind the dashboard's
// /api/v1/analysis routes, on the warm shared cache.
func probeAnalyses(tr *tracer, res *runResult, arc *source.ArchiveSource, meta source.Meta) error {
	root := tr.begin("bench.query-dash.analysis-probes")
	defer tr.end(root)
	probes := []struct {
		metric, span string
		fn           func() error
	}{
		{"source.series_range_ms", "source.ArchiveSource.SeriesRange", func() error {
			_, err := arc.SeriesRange("sum_inp", meta.StartTime, meta.StartTime+meta.SpanSec())
			return err
		}},
		{"core.analysis_edges_ms", "core.EdgesFromSource", func() error {
			_, err := core.EdgesFromSource(arc)
			return err
		}},
		{"core.analysis_bands_ms", "core.ThermalBandsFromSource", func() error {
			_, err := core.ThermalBandsFromSource(arc)
			return err
		}},
		{"core.analysis_summary_ms", "core.SummaryFromSource", func() error {
			_, err := core.SummaryFromSource(arc)
			return err
		}},
	}
	for _, p := range probes {
		v, err := medianMS(tr, p.span, p.fn)
		if err != nil {
			return err
		}
		res.set(p.metric, v, probeRepeats)
	}
	return nil
}
