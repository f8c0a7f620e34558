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
// the reply value or an error. A reply that is an Encoder or a *Body goes
// out without reflection; anything else through encoding/json.
type Route func(ctx context.Context, q url.Values) (any, error)

// Encoder is a reply that appends its own JSON, byte for byte what
// encoding/json (SetEscapeHTML(false)) would produce for it. One that also
// has an `EngineTime() time.Duration` method is sent with a Server-Timing
// header carrying that and the encode time.
type Encoder interface {
	AppendJSON(b []byte) []byte
}

// Body is a reply that is already encoded (a memoized answer); the bytes
// are shared and must not be modified.
type Body struct {
	JSON   []byte
	Timing string // Server-Timing header value
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
}

// NewKernel returns a kernel that gives each guarded request timeout to
// answer and sheds beyond maxConcurrent of them (<= 0: 32). status maps the
// service's own sentinel errors to an HTTP status, 0 for one it does not
// know; it may be nil.
func NewKernel(timeout time.Duration, maxConcurrent int, status func(error) int) *Kernel {
	if maxConcurrent <= 0 {
		maxConcurrent = 32
	}
	return &Kernel{timeout: timeout, sem: make(chan struct{}, maxConcurrent), status: status}
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
// route answer 200 from its defaults.
func (k *Kernel) Guard(route Route) http.HandlerFunc {
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
		k.InFlight.Add(1)
		defer func() {
			k.InFlight.Add(-1)
			<-k.sem
		}()
		q, err := url.ParseQuery(r.URL.RawQuery)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad query string: "+err.Error())
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), k.timeout)
		defer cancel()
		resp, err := route(ctx, q)
		if err != nil {
			status, msg := k.errStatus(err)
			WriteError(w, status, msg)
			return
		}
		switch resp := resp.(type) {
		case Encoder:
			k.writeEncoded(w, resp)
		case *Body:
			w.Header().Set("Server-Timing", resp.Timing)
			WriteBody(w, http.StatusOK, resp.JSON)
		default:
			WriteJSON(w, http.StatusOK, resp)
		}
	}
}

// Unguarded wraps a route that must answer precisely when the service is
// swamped (streamd's live/health): GET-only, but outside the limiter and
// the deadline, so an overloaded service can still say that it is.
func (k *Kernel) Unguarded(route func() Encoder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if getOnly(w, r) {
			k.writeEncoded(w, route())
		}
	}
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
	encode := time.Since(start)
	k.EncodeLatency.ObserveNS(encode)
	if et, ok := r.(interface{ EngineTime() time.Duration }); ok {
		w.Header().Set("Server-Timing", fmt.Sprintf("engine;dur=%.3f, encode;dur=%.3f", DurMS(et.EngineTime()), DurMS(encode)))
	}
	WriteBody(w, http.StatusOK, b)
	putReplyBuf(bp, b)
}

// DurMS renders a stage time for a Server-Timing header.
func DurMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

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

// MarshalJSON returns the bytes WriteJSON would send for v, in a slice the
// caller owns.
func MarshalJSON(v any) ([]byte, error) {
	bp := replyBufs.Get().(*[]byte)
	b, err := marshalReply(bp, v)
	var out []byte
	if err == nil {
		out = bytes.Clone(b) // the buffer goes back to the pool
	}
	putReplyBuf(bp, b)
	return out, err
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

// QueryInt parses an optional integer query parameter; a value that is not
// an integer is a 400.
func QueryInt(s string, def int64) (int64, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, &Error{http.StatusBadRequest, fmt.Sprintf("bad integer %q", s)}
	}
	return v, nil
}
