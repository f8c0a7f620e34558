// Package servetest states the serving kernel's contract once, as a table a
// service's own tests run against its real handler: whatever routes a
// service mounts, a guarded one refuses, sheds, times out and fails the same
// way in queryd and streamd.
package servetest

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// Service is one service under the contract.
type Service struct {
	// New builds the service's handler the way its daemon does, with the
	// given kernel limits (zero: the service's defaults), and returns it
	// with the kernel its routes are guarded by.
	New func(timeout time.Duration, maxConcurrent int) (http.Handler, *serve.Kernel)
	// OK is a guarded route that answers 200 as given.
	OK string
	// BadInt is a guarded route with a non-integer where an integer belongs.
	BadInt string
}

// Occupy takes one slot of k's limiter with a request that stays in flight
// until the returned release is called; release returns once the slot is
// free again.
func Occupy(t *testing.T, k *serve.Kernel) (release func()) {
	t.Helper()
	entered, gate, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	hold := k.Guard("hold", func(context.Context, url.Values) (any, error) {
		close(entered)
		<-gate
		return struct{}{}, nil
	})
	go func() {
		defer close(done)
		hold(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/hold", nil))
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("servetest: no free slot to occupy")
	}
	return func() {
		close(gate)
		<-done
	}
}

// do serves one request and checks what every kernel reply promises: a JSON
// body that is complete (Content-Length says so) and, for an error, an
// {"error": "..."} object.
func do(t *testing.T, h http.Handler, method, target string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	body := rec.Body.Bytes()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s %s: Content-Type %q", method, target, ct)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("%s %s: Content-Length %q, body %d bytes", method, target, cl, len(body))
	}
	if rec.Code >= 400 {
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s %s: status %d with body %q, want {\"error\": ...}", method, target, rec.Code, body)
		}
	}
	return rec
}

// Contract runs the table.
func Contract(t *testing.T, svc Service) {
	// mount puts two probe routes beside the service's own, behind the same
	// kernel: a reply that does not encode, and a route as slow as its
	// deadline.
	mount := func(timeout time.Duration, maxConcurrent int) (http.Handler, *serve.Kernel) {
		h, k := svc.New(timeout, maxConcurrent)
		mux := http.NewServeMux()
		mux.Handle("/", h)
		mux.Handle("/probe/nan", k.Guard("probe/nan", func(context.Context, url.Values) (any, error) {
			return map[string]any{"v": math.NaN()}, nil
		}))
		mux.Handle("/probe/slow", k.Guard("probe/slow", func(ctx context.Context, _ url.Values) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}))
		return mux, k
	}
	h, k := mount(0, 1)
	// with adds a parameter to the OK route; padded makes its raw query
	// string exactly n bytes long.
	path, query, _ := strings.Cut(svc.OK, "?")
	if query != "" {
		query += "&"
	}
	with := func(param string) string { return path + "?" + query + param }
	padded := func(n int) string { return with("pad=" + strings.Repeat("x", n-len(query)-len("pad="))) }

	for _, tc := range []struct {
		name, method, target string
		want                 int
	}{
		{"guarded route", http.MethodGet, svc.OK, 200},
		{"HEAD is a GET", http.MethodHead, svc.OK, 200},
		{"POST", http.MethodPost, svc.OK, 405},
		{"DELETE", http.MethodDelete, svc.OK, 405},
		{"query string at the bound", http.MethodGet, padded(serve.MaxQueryLen), 200},
		{"query string over the bound", http.MethodGet, padded(serve.MaxQueryLen + 1), 414},
		{"bad integer", http.MethodGet, svc.BadInt, 400},
		{"semicolon separator", http.MethodGet, with("t0=5;step=600"), 400},
		{"bad percent escape", http.MethodGet, with("limit=%zz"), 400},
		{"reply that cannot encode", http.MethodGet, "/probe/nan", 500},
	} {
		if rec := do(t, h, tc.method, tc.target); rec.Code != tc.want {
			t.Errorf("%s: %s %.80s = %d (%.200s), want %d", tc.name, tc.method, tc.target, rec.Code, rec.Body, tc.want)
		}
	}

	t.Run("shed", func(t *testing.T) {
		release := Occupy(t, k)
		if got := k.InFlight.Load(); got != 1 {
			t.Errorf("in flight = %d while one request holds the slot", got)
		}
		rec := do(t, h, http.MethodGet, svc.OK)
		if rec.Code != 503 || rec.Header().Get("Retry-After") != "1" {
			t.Errorf("over the limit: status %d, Retry-After %q; want 503 and 1", rec.Code, rec.Header().Get("Retry-After"))
		}
		if got := k.Rejected.Load(); got != 1 {
			t.Errorf("rejected = %d after one shed request", got)
		}
		release()
		if rec := do(t, h, http.MethodGet, svc.OK); rec.Code != 200 {
			t.Errorf("after release: status %d (%s)", rec.Code, rec.Body)
		}
		if got := k.InFlight.Load(); got != 0 {
			t.Errorf("in flight = %d at rest", got)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		h, _ := mount(5*time.Millisecond, 0)
		if rec := do(t, h, http.MethodGet, "/probe/slow"); rec.Code != 504 {
			t.Errorf("route slower than its deadline: status %d (%s), want 504", rec.Code, rec.Body)
		}
	})
}
