package query

import (
	"sync/atomic"

	"repro/internal/serve"
)

// Metrics is the engine's instrumentation surface: monotonic counters plus a
// scan-latency histogram, all lock-free so the serving path never blocks on
// bookkeeping. Snapshot renders them as a JSON-friendly map for the
// /debug/vars endpoint, which adds the serving tier's own counters (shed,
// in-flight, reply encode time, per-route latency) from the serve.Kernel
// and the reply cache's. The query counters count runs of the engine and of
// the analyses — behind the handler's reply cache, its misses; requests are
// what the kernel's per-route histograms count.
type Metrics struct {
	RangeQueries    atomic.Int64
	RollupQueries   atomic.Int64
	DatasetQueries  atomic.Int64
	AnalysisQueries atomic.Int64
	Errors          atomic.Int64

	CacheHits      atomic.Int64
	CacheMisses    atomic.Int64
	CacheEvictions atomic.Int64

	IterScans     atomic.Int64 // day partitions served by the streaming iterator
	PreaggQueries atomic.Int64 // rollups and fleet ranges answered from persisted pre-aggregates

	BytesDecoded atomic.Int64 // decoded (in-memory) bytes of cache misses
	RowsScanned  atomic.Int64
	DaysScanned  atomic.Int64
	DaysPruned   atomic.Int64

	ScanLatency serve.LatencyHistogram // engine time per query, us
}

// Snapshot returns a point-in-time view of every counter, grouped the way
// /debug/vars serves them.
func (m *Metrics) Snapshot() map[string]any {
	return map[string]any{
		"queries": map[string]int64{
			"range":    m.RangeQueries.Load(),
			"rollup":   m.RollupQueries.Load(),
			"datasets": m.DatasetQueries.Load(),
			"analysis": m.AnalysisQueries.Load(),
			"errors":   m.Errors.Load(),
		},
		"cache": map[string]int64{
			"hits":      m.CacheHits.Load(),
			"misses":    m.CacheMisses.Load(),
			"evictions": m.CacheEvictions.Load(),
		},
		"scan": map[string]int64{
			"bytes_decoded":  m.BytesDecoded.Load(),
			"rows_scanned":   m.RowsScanned.Load(),
			"days_scanned":   m.DaysScanned.Load(),
			"days_pruned":    m.DaysPruned.Load(),
			"iter_scans":     m.IterScans.Load(),
			"preagg_queries": m.PreaggQueries.Load(),
		},
		"latency_us": m.ScanLatency.Snapshot(),
	}
}
