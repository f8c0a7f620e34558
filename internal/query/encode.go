package query

import (
	"time"

	"repro/internal/serve"
)

// This file is the reflection-free reply encoder of the two hot routes:
// range and rollup results append themselves to a caller-supplied buffer,
// byte for byte what encoding/json (SetEscapeHTML(false)) produced for the
// reply structs they replaced — field order, float format, the
// NaN/Inf -> null rule and omitempty included. Every other reply still goes
// through encoding/json. Both are serve.Tailed: the payload, which the
// reply cache stores, ends before `,"stats":{`, and the stats block is the
// tail each request gets for itself.

// appendWindow appends one window object. std and sum are omitempty: a
// range window carries std, a rollup window sum, and either is dropped
// when zero (NaN is not zero: it stays, as null).
func appendWindow(b []byte, t, count int64, mn, mx, mean, std, sum float64) []byte {
	b = serve.AppendKeyInt(b, `{"t":`, t)
	b = serve.AppendKeyInt(b, `,"count":`, count)
	b = serve.AppendKeyFloat(b, `,"min":`, mn)
	b = serve.AppendKeyFloat(b, `,"max":`, mx)
	b = serve.AppendKeyFloat(b, `,"mean":`, mean)
	if std != 0 {
		b = serve.AppendKeyFloat(b, `,"std":`, std)
	}
	if sum != 0 {
		b = serve.AppendKeyFloat(b, `,"sum":`, sum)
	}
	return append(b, '}')
}

func appendStats(b []byte, s QueryStats) []byte {
	b = serve.AppendKeyInt(b, `,"stats":{"days_total":`, int64(s.DaysTotal))
	b = serve.AppendKeyInt(b, `,"days_scanned":`, int64(s.DaysScanned))
	b = serve.AppendKeyInt(b, `,"days_pruned":`, int64(s.DaysPruned))
	b = serve.AppendKeyInt(b, `,"rows_scanned":`, s.RowsScanned)
	b = serve.AppendKeyInt(b, `,"cache_hits":`, s.CacheHits)
	b = serve.AppendKeyInt(b, `,"cache_misses":`, s.CacheMisses)
	if s.Preagg {
		b = append(b, `,"preagg":true`...)
	}
	if s.Cached {
		b = append(b, `,"cached":true`...)
	}
	b = serve.AppendKeyInt(b, `,"elapsed_us":`, s.Elapsed.Microseconds())
	return append(b, '}')
}

// AppendTail closes a range or rollup reply with its stats block
// (serve.Tail). A request answered from stored bytes scanned nothing and
// took elapsed; what stays is what is true of the answer however it was
// got: the archive's day count and whether it came from pre-aggregates.
func (s QueryStats) AppendTail(b []byte, hit bool, elapsed time.Duration) []byte {
	if hit {
		s = QueryStats{DaysTotal: s.DaysTotal, Preagg: s.Preagg, Cached: true, Elapsed: elapsed}
	}
	return append(appendStats(b, s), '}')
}

func (r *RangeResult) Tail() serve.Tail  { return r.Stats }
func (r *RollupResult) Tail() serve.Tail { return r.Stats }

// AppendPayload appends the /api/v1/range reply object up to its stats.
func (r *RangeResult) AppendPayload(b []byte) []byte {
	b = serve.AppendKeyString(b, `{"dataset":`, r.Dataset)
	b = serve.AppendKeyString(b, `,"column":`, r.Column)
	if r.Node >= 0 {
		b = serve.AppendKeyInt(b, `,"node":`, r.Node)
	}
	b = serve.AppendKeyInt(b, `,"t0":`, r.T0)
	b = serve.AppendKeyInt(b, `,"t1":`, r.T1)
	b = serve.AppendKeyInt(b, `,"step":`, r.Step)
	if len(r.Points) > 0 {
		b = append(b, `,"points":[`...)
		for i, p := range r.Points {
			if i > 0 {
				b = append(b, ',')
			}
			b = serve.AppendKeyInt(b, `{"t":`, p.T)
			b = append(serve.AppendKeyFloat(b, `,"v":`, p.V), '}')
		}
		b = append(b, ']')
	}
	if len(r.Windows) > 0 {
		b = append(b, `,"windows":[`...)
		for i, w := range r.Windows {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendWindow(b, w.T, w.Count, w.Min, w.Max, w.Mean, w.Std, 0)
		}
		b = append(b, ']')
	}
	return b
}

// AppendPayload appends the /api/v1/rollup reply object up to its stats.
func (r *RollupResult) AppendPayload(b []byte) []byte {
	b = serve.AppendKeyString(b, `{"dataset":`, r.Dataset)
	b = serve.AppendKeyString(b, `,"column":`, r.Column)
	b = serve.AppendKeyString(b, `,"group":`, string(r.Group))
	b = serve.AppendKeyInt(b, `,"t0":`, r.T0)
	b = serve.AppendKeyInt(b, `,"t1":`, r.T1)
	b = serve.AppendKeyInt(b, `,"step":`, r.Step)
	b = append(b, `,"series":[`...)
	for i, gs := range r.Series {
		if i > 0 {
			b = append(b, ',')
		}
		b = serve.AppendKeyInt(b, `{"group":`, int64(gs.Group))
		b = serve.AppendKeyString(b, `,"label":`, gs.Label)
		b = append(b, `,"windows":[`...)
		for j, w := range gs.Windows {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendWindow(b, w.T, w.Count, w.Min, w.Max, w.Mean, 0, w.Sum)
		}
		b = append(b, "]}"...)
	}
	return append(b, ']')
}
