package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// MaxQueryLen bounds the raw query string of every guarded route; a longer
// one is refused with 414 before it is parsed.
const MaxQueryLen = 8192

// Route is one API route behind Guard: it gets the request's context,
// already carrying the deadline, and its parsed query string, and returns
// the reply value or an error. A reply that is an Encoder goes out without
// reflection; anything else through encoding/json.
type Route func(ctx context.Context, q url.Values) (any, error)

// PureRoute is one API route behind GuardCached, whose reply is a pure
// function of the request for as long as the service runs. It parses the
// query string into key — the canonical form of the request as the route
// read it: defaults filled in, numbers as parsed, parameters it does not
// read left out, so two spellings of one request share an entry and a
// stray parameter makes none — and compute, which builds the reply value
// (a Tailed, or anything encoding/json takes). An error is answered without
// a lookup.
type PureRoute func(q url.Values) (key string, compute Compute, err error)

// Compute builds a pure route's reply value for one parsed request.
type Compute = func(ctx context.Context) (any, error)

// Encoder is a reply that appends its own JSON, byte for byte what
// encoding/json (SetEscapeHTML(false)) would produce for it.
type Encoder interface {
	AppendJSON(b []byte) []byte
}

// Tailed is a self-encoding reply that ends in a block describing the
// request rather than the answer (what it scanned, how long it took). The
// cache stores the payload and gives every request its own tail, so the
// payload is the same bytes on a miss and on a hit while the cost fields
// stay true of the request that reads them.
type Tailed interface {
	// AppendPayload appends the reply up to the tail.
	AppendPayload(b []byte) []byte
	// Tail returns the rest, as a value small enough to keep beside the
	// stored payload.
	Tail() Tail
}

// Tail closes a Tailed reply.
type Tail interface {
	// AppendTail appends the tail and whatever closes the reply: as
	// computed when hit is false, and when it is true as it reads for a
	// request answered from stored bytes after elapsed.
	AppendTail(b []byte, hit bool, elapsed time.Duration) []byte
}

// Error is an error that knows its HTTP status; Msg is what the client
// reads.
type Error struct {
	Status int
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

// Kernel is the serving state of one service: the concurrency limiter and
// deadline every guarded route runs under, and the counters of that tier.
type Kernel struct {
	timeout time.Duration
	sem     chan struct{}
	status  func(error) int

	Rejected      atomic.Int64     // requests shed by the limiter
	InFlight      atomic.Int64     // guarded requests running now
	EncodeLatency LatencyHistogram // Encoder reply encode time, ns

	mu     sync.Mutex
	routes map[string]*LatencyHistogram // admitted-request latency per route name, us
}

// NewKernel returns a kernel that gives each guarded request timeout to
// answer and sheds beyond maxConcurrent of them (<= 0: 32). status maps the
// service's own sentinel errors to an HTTP status, 0 for one it does not
// know; it may be nil.
func NewKernel(timeout time.Duration, maxConcurrent int, status func(error) int) *Kernel {
	if maxConcurrent <= 0 {
		maxConcurrent = 32
	}
	return &Kernel{timeout: timeout, sem: make(chan struct{}, maxConcurrent), status: status,
		routes: map[string]*LatencyHistogram{}}
}

// route returns the latency histogram of the route called name.
func (k *Kernel) route(name string) *LatencyHistogram {
	k.mu.Lock()
	defer k.mu.Unlock()
	h := k.routes[name]
	if h == nil {
		h = new(LatencyHistogram)
		k.routes[name] = h
	}
	return h
}

// RouteLatencies snapshots the per-route histograms (microseconds).
func (k *Kernel) RouteLatencies() map[string]map[string]int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make(map[string]map[string]int64, len(k.routes))
	for name, h := range k.routes {
		out[name] = h.Snapshot()
	}
	return out
}

// Vars serves the kernel's own counters as a /debug/vars page, for a
// service with nothing to add to them.
func (k *Kernel) Vars(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"rejected":  k.Rejected.Load(),
		"inflight":  k.InFlight.Load(),
		"encode_ns": k.EncodeLatency.Snapshot(),
		"routes":    k.RouteLatencies(),
	})
}

// getOnly answers 405 unless the request is a GET or HEAD.
func getOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	WriteError(w, http.StatusMethodNotAllowed, "GET only")
	return false
}

// Guard wraps route with the method and query-length checks, load shedding
// (503 with Retry-After rather than a queue), the per-request deadline and
// the error and reply writers. The query string is parsed once, here, and a
// malformed one is a 400: r.URL.Query() would drop the bad pair and let the
// route answer 200 from its defaults. name labels the route's latency
// histogram.
func (k *Kernel) Guard(name string, route Route) http.HandlerFunc {
	return k.guarded(name, func(ctx context.Context, w http.ResponseWriter, _ *http.Request, q url.Values) {
		resp, err := route(ctx, q)
		if err != nil {
			k.writeError(w, err)
			return
		}
		if enc, ok := resp.(Encoder); ok {
			k.writeEncoded(w, enc)
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	})
}

// GuardCached is Guard for a pure route: after every check Guard makes, the
// request is answered from c under the route's canonical key, computing
// (once, however many identical requests wait) only what c does not hold.
// A stored reply carries its ETag, and a matching If-None-Match is a 304.
func (k *Kernel) GuardCached(name string, c *ReplyCache, route PureRoute) http.HandlerFunc {
	return k.guarded(name, func(ctx context.Context, w http.ResponseWriter, r *http.Request, q url.Values) {
		key, compute, err := route(q)
		if err != nil {
			k.writeError(w, err)
			return
		}
		start := time.Now()
		var engine, encode time.Duration // of this request's own compute
		// One buffer per request: its own compute encodes into it, a stored
		// payload is copied into it ahead of this request's tail.
		bp := replyBufs.Get().(*[]byte)
		b := (*bp)[:0]
		defer func() { putReplyBuf(bp, b) }()
		rep, how, err := c.Do(ctx, name+"\x00"+key, func(ctx context.Context) (Encoded, error) {
			v, err := compute(ctx)
			engine = time.Since(start)
			if err != nil {
				return Encoded{}, err
			}
			rep, err := k.encode(b, v)
			b = rep.Payload
			encode = time.Since(start) - engine
			return rep, err
		})
		if err != nil {
			k.writeError(w, err)
			return
		}
		// A hit's times are the hit's: what this request spent getting the
		// bytes, not what computing them once cost another.
		timing := append(make([]byte, 0, 64), "cache;desc="...)
		timing = append(append(timing, how...), ", engine;dur="...)
		if how == "miss" {
			timing = append(appendMS(timing, engine), ", encode;dur="...)
			timing = appendMS(timing, encode)
		} else {
			timing = appendMS(timing, time.Since(start))
		}
		w.Header().Set("Server-Timing", string(timing))
		if rep.ETag != "" {
			w.Header().Set("ETag", rep.ETag)
			if etagMatches(r.Header.Get("If-None-Match"), rep.ETag) {
				c.notModified.Add(1)
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		if how != "miss" {
			if rep.Tail == nil {
				WriteBody(w, http.StatusOK, rep.Payload)
				return
			}
			b = append(b, rep.Payload...)
		}
		if rep.Tail != nil {
			b = append(rep.Tail.AppendTail(b, how != "miss", time.Since(start)), '\n')
		}
		WriteBody(w, http.StatusOK, b)
	})
}

// encode renders a pure route's reply value onto b, in the form the cache
// keeps.
func (k *Kernel) encode(b []byte, v any) (rep Encoded, err error) {
	if t, ok := v.(Tailed); ok {
		start := time.Now()
		rep.Payload, rep.Tail = t.AppendPayload(b), t.Tail()
		k.EncodeLatency.ObserveNS(time.Since(start))
		return rep, nil
	}
	rep.Payload, err = marshalReply(&b, v)
	return rep, err
}

// guarded is the prelude of every guarded route; serve runs with the
// request admitted, its query string parsed and its deadline set.
func (k *Kernel) guarded(name string, serve func(context.Context, http.ResponseWriter, *http.Request, url.Values)) http.HandlerFunc {
	latency := k.route(name)
	return func(w http.ResponseWriter, r *http.Request) {
		if !getOnly(w, r) {
			return
		}
		if len(r.URL.RawQuery) > MaxQueryLen {
			WriteError(w, http.StatusRequestURITooLong, fmt.Sprintf("query string over %d bytes", MaxQueryLen))
			return
		}
		select {
		case k.sem <- struct{}{}:
		default:
			k.Rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusServiceUnavailable, "concurrency limit reached")
			return
		}
		start := time.Now()
		k.InFlight.Add(1)
		defer func() {
			k.InFlight.Add(-1)
			<-k.sem
			latency.Observe(time.Since(start))
		}()
		q, err := url.ParseQuery(r.URL.RawQuery)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad query string: "+err.Error())
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), k.timeout)
		defer cancel()
		serve(ctx, w, r, q)
	}
}

// Unguarded wraps a route that must answer precisely when the service is
// swamped (streamd's live/health): GET-only, but outside the limiter and
// the deadline, so an overloaded service can still say that it is.
func (k *Kernel) Unguarded(name string, route func() Encoder) http.HandlerFunc {
	latency := k.route(name)
	return func(w http.ResponseWriter, r *http.Request) {
		if getOnly(w, r) {
			start := time.Now()
			k.writeEncoded(w, route())
			latency.Observe(time.Since(start))
		}
	}
}

// writeError answers a route's error.
func (k *Kernel) writeError(w http.ResponseWriter, err error) {
	status, msg := k.errStatus(err)
	WriteError(w, status, msg)
}

// errStatus maps a route's error to a status and a client-facing message:
// an *Error as it says, then the service's sentinels, then the deadline.
func (k *Kernel) errStatus(err error) (int, string) {
	var se *Error
	if errors.As(err, &se) {
		return se.Status, se.Msg
	}
	if k.status != nil {
		if status := k.status(err); status != 0 {
			return status, err.Error()
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, "request deadline exceeded"
	}
	return http.StatusInternalServerError, err.Error()
}

// replyBufs recycles reply buffers; maxPooledReply keeps a rare multi-MB
// raw reply from pinning its buffer in the pool.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledReply = 1 << 20

// putReplyBuf returns a buffer taken from replyBufs, grown to b.
func putReplyBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledReply {
		*bp = b
		replyBufs.Put(bp)
	}
}

// writeEncoded sends a self-encoding reply from a pooled buffer.
func (k *Kernel) writeEncoded(w http.ResponseWriter, r Encoder) {
	bp := replyBufs.Get().(*[]byte)
	start := time.Now()
	b := append(r.AppendJSON((*bp)[:0]), '\n')
	k.EncodeLatency.ObserveNS(time.Since(start))
	WriteBody(w, http.StatusOK, b)
	putReplyBuf(bp, b)
}

// appendMS appends a stage time for a Server-Timing header: milliseconds to
// the microsecond.
func appendMS(b []byte, d time.Duration) []byte {
	return strconv.AppendFloat(b, float64(d)/float64(time.Millisecond), 'f', 3, 64)
}

// WriteBody sends a complete JSON body: every reply is built in full before
// its status is committed, and goes out with Content-Length in one Write.
func WriteBody(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b)
}

// marshalReply encodes v into the pooled buffer bp the way every
// reflection-encoded reply always was: encoding/json, HTML escaping off, a
// trailing newline.
func marshalReply(bp *[]byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer((*bp)[:0])
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// WriteJSON encodes v in full before committing the status, so a value that
// does not encode is a 500 with an error body, not a truncated 200.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	bp := replyBufs.Get().(*[]byte)
	b, err := marshalReply(bp, v)
	if err != nil {
		putReplyBuf(bp, b)
		WriteError(w, http.StatusInternalServerError, "encoding reply: "+err.Error())
		return
	}
	WriteBody(w, status, b)
	putReplyBuf(bp, b)
}

// WriteError sends {"error": msg} with the given status.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

// Healthz is the liveness route of both services.
func Healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

// QueryInt parses the optional integer query parameter name (def when
// absent); a value that is not an integer is a 400 naming the parameter.
func QueryInt(q url.Values, name string, def int64) (int64, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, &Error{http.StatusBadRequest, fmt.Sprintf("%s=%q is not an integer", name, s)}
	}
	return v, nil
}
