package query

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// This file is the reflection-free reply encoder of the two hot routes:
// range and rollup results append themselves to a caller-supplied buffer,
// byte for byte what encoding/json (SetEscapeHTML(false)) produced for the
// reply structs they replaced — field order, float format, the
// NaN/Inf -> null rule and omitempty included. Every other reply still goes
// through encoding/json.

// replyEncoder is a reply that encodes itself without reflection and knows
// what its engine call cost (encode.go).
type replyEncoder interface {
	appendJSON(b []byte) []byte
	engineTime() time.Duration
}

func (r *RangeResult) engineTime() time.Duration  { return r.Stats.Elapsed }
func (r *RollupResult) engineTime() time.Duration { return r.Stats.Elapsed }

// replyBufs recycles reply buffers; maxPooledReply keeps a rare multi-MB
// raw reply from pinning its buffer in the pool.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledReply = 1 << 20

// writeEncoded sends a self-encoding reply: the whole body is built in a
// pooled buffer first, so it goes out with Content-Length in one Write and
// the header can carry the request's stage times.
func (h *handler) writeEncoded(w http.ResponseWriter, r replyEncoder) {
	bp := replyBufs.Get().(*[]byte)
	start := time.Now()
	b := append(r.appendJSON((*bp)[:0]), '\n')
	encode := time.Since(start)
	h.metrics().EncodeLatency.ObserveNS(encode)
	hd := w.Header()
	hd.Set("Content-Type", "application/json")
	hd.Set("Content-Length", strconv.Itoa(len(b)))
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	hd.Set("Server-Timing", fmt.Sprintf("engine;dur=%.3f, encode;dur=%.3f", ms(r.engineTime()), ms(encode)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledReply {
		*bp = b
		replyBufs.Put(bp)
	}
}

// appendJSONFloat appends f the way encoding/json formats a float64 (the
// ES6 number-to-string rule: shortest round-trip digits, exponent form
// below 1e-6 and from 1e21, "e-09" trimmed to "e-9"), and NaN and ±Inf —
// legal in the archive, illegal in JSON — as null.
//
//lint:allocfree
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...) //lint:allow allocfree appends into the caller's pooled reply buffer
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64) //lint:allow allocfree append-style: writes into the caller's pooled reply buffer
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal with encoding/json's
// escaping (HTML escaping off): quote, backslash and control characters
// escaped, invalid UTF-8 replaced by U+FFFD, U+2028/U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(b, s[start:]...), '"')
}

// appendKeyInt appends `"key":v` (key given with its quotes, colon and any
// leading comma).
func appendKeyInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendKeyFloat(b []byte, key string, v float64) []byte {
	return appendJSONFloat(append(b, key...), v)
}

// appendWindow appends one window object. std and sum are omitempty: a
// range window carries std, a rollup window sum, and either is dropped
// when zero (NaN is not zero: it stays, as null).
func appendWindow(b []byte, t, count int64, mn, mx, mean, std, sum float64) []byte {
	b = appendKeyInt(b, `{"t":`, t)
	b = appendKeyInt(b, `,"count":`, count)
	b = appendKeyFloat(b, `,"min":`, mn)
	b = appendKeyFloat(b, `,"max":`, mx)
	b = appendKeyFloat(b, `,"mean":`, mean)
	if std != 0 {
		b = appendKeyFloat(b, `,"std":`, std)
	}
	if sum != 0 {
		b = appendKeyFloat(b, `,"sum":`, sum)
	}
	return append(b, '}')
}

func appendStats(b []byte, s QueryStats) []byte {
	b = appendKeyInt(b, `,"stats":{"days_total":`, int64(s.DaysTotal))
	b = appendKeyInt(b, `,"days_scanned":`, int64(s.DaysScanned))
	b = appendKeyInt(b, `,"days_pruned":`, int64(s.DaysPruned))
	b = appendKeyInt(b, `,"rows_scanned":`, s.RowsScanned)
	b = appendKeyInt(b, `,"cache_hits":`, s.CacheHits)
	b = appendKeyInt(b, `,"cache_misses":`, s.CacheMisses)
	if s.Preagg {
		b = append(b, `,"preagg":true`...)
	}
	b = appendKeyInt(b, `,"elapsed_us":`, s.Elapsed.Microseconds())
	return append(b, '}')
}

// appendJSON appends the /api/v1/range reply object.
func (r *RangeResult) appendJSON(b []byte) []byte {
	b = appendJSONString(append(b, `{"dataset":`...), r.Dataset)
	b = appendJSONString(append(b, `,"column":`...), r.Column)
	if r.Node >= 0 {
		b = appendKeyInt(b, `,"node":`, r.Node)
	}
	b = appendKeyInt(b, `,"t0":`, r.T0)
	b = appendKeyInt(b, `,"t1":`, r.T1)
	b = appendKeyInt(b, `,"step":`, r.Step)
	if len(r.Points) > 0 {
		b = append(b, `,"points":[`...)
		for i, p := range r.Points {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendKeyInt(b, `{"t":`, p.T)
			b = append(appendKeyFloat(b, `,"v":`, p.V), '}')
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
	return append(appendStats(b, r.Stats), '}')
}

// appendJSON appends the /api/v1/rollup reply object.
func (r *RollupResult) appendJSON(b []byte) []byte {
	b = appendJSONString(append(b, `{"dataset":`...), r.Dataset)
	b = appendJSONString(append(b, `,"column":`...), r.Column)
	b = appendJSONString(append(b, `,"group":`...), string(r.Group))
	b = appendKeyInt(b, `,"t0":`, r.T0)
	b = appendKeyInt(b, `,"t1":`, r.T1)
	b = appendKeyInt(b, `,"step":`, r.Step)
	b = append(b, `,"series":[`...)
	for i, gs := range r.Series {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendKeyInt(b, `{"group":`, int64(gs.Group))
		b = appendJSONString(append(b, `,"label":`...), gs.Label)
		b = append(b, `,"windows":[`...)
		for j, w := range gs.Windows {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendWindow(b, w.T, w.Count, w.Min, w.Max, w.Mean, 0, w.Sum)
		}
		b = append(b, "]}"...)
	}
	return append(appendStats(append(b, ']'), r.Stats), '}')
}
