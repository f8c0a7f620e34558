package serve_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

// reply is an Encoder.
type reply struct{ s string }

func (r reply) AppendJSON(b []byte) []byte { return serve.AppendJSONString(b, r.s) }

// tailedReply is a Tailed: {"v":…,"cost":{…}} where cost is the tail.
type tailedReply struct{ v string }

type costTail struct{ rows int64 }

func (r tailedReply) AppendPayload(b []byte) []byte { return serve.AppendKeyString(b, `{"v":`, r.v) }
func (r tailedReply) Tail() serve.Tail              { return costTail{rows: 42} }

func (c costTail) AppendTail(b []byte, hit bool, elapsed time.Duration) []byte {
	if hit {
		return append(serve.AppendKeyInt(b, `,"cost":{"rows":0,"cached":true,"us":`, elapsed.Microseconds()), "}}"...)
	}
	return append(serve.AppendKeyInt(b, `,"cost":{"rows":`, c.rows), "}}"...)
}

var errTeapot = errors.New("teapot")

// toyService is the smallest service the kernel can carry: a few routes
// keyed by ?reply=, and one sentinel error of its own.
func toyService(timeout time.Duration, maxConcurrent int) (http.Handler, *serve.Kernel) {
	if timeout <= 0 {
		timeout = time.Minute
	}
	k := serve.NewKernel(timeout, maxConcurrent, func(err error) int {
		if errors.Is(err, errTeapot) {
			return http.StatusTeapot
		}
		return 0
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", serve.Healthz)
	mux.HandleFunc("/open", k.Unguarded("open", func() serve.Encoder { return reply{"open"} }))
	mux.HandleFunc("/api", k.Guard("api", func(_ context.Context, q url.Values) (any, error) {
		if _, err := serve.QueryInt(q, "n", 0); err != nil {
			return nil, err
		}
		switch q.Get("reply") {
		case "encoder":
			return reply{"a<b>"}, nil
		case "sentinel":
			return nil, errors.Join(errors.New("brewing"), errTeapot)
		case "conflict":
			return nil, &serve.Error{Status: http.StatusConflict, Msg: "grids differ"}
		case "broken":
			return nil, errors.New("disk on fire")
		}
		return map[string]any{"tag": "a<b>"}, nil
	}))
	return mux, k
}

func TestKernelContract(t *testing.T) {
	servetest.Contract(t, servetest.Service{New: toyService, OK: "/api", BadInt: "/api?n=1.5"})
}

// TestReplySwitch: the two reply forms and the three error forms each go
// out with the status and body the services' golden tests expect, and each
// route's requests are timed under its name.
func TestReplySwitch(t *testing.T) {
	h, k := toyService(0, 0)
	for _, tc := range []struct {
		target string
		status int
		body   string
	}{
		{"/api", 200, `{"tag":"a<b>"}` + "\n"},
		{"/api?reply=encoder", 200, `"a<b>"` + "\n"},
		{"/open", 200, `"open"` + "\n"},
		{"/api?reply=sentinel", http.StatusTeapot, `{"error":"brewing\nteapot"}` + "\n"},
		{"/api?reply=conflict", http.StatusConflict, `{"error":"grids differ"}` + "\n"},
		{"/api?reply=broken", 500, `{"error":"disk on fire"}` + "\n"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.target, nil))
		if rec.Code != tc.status || rec.Body.String() != tc.body {
			t.Errorf("%s = %d %q, want %d %q", tc.target, rec.Code, rec.Body, tc.status, tc.body)
		}
		if st := rec.Header().Get("Server-Timing"); st != "" {
			t.Errorf("%s: Server-Timing = %q on an uncached route", tc.target, st)
		}
	}
	if got := k.EncodeLatency.Snapshot()["count"]; got != 2 {
		t.Errorf("encode histogram counted %d replies, want the 2 Encoder ones", got)
	}
	if lat := k.RouteLatencies(); lat["api"]["count"] != 5 || lat["open"]["count"] != 1 {
		t.Errorf("route latencies = %v, want 5 requests under api, 1 under open", lat)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/open", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST to an unguarded route = %d, want 405", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != 200 || rec.Body.String() != "ok\n" || rec.Header().Get("Content-Type") != "text/plain; charset=utf-8" {
		t.Errorf("/healthz = %d %q (%s)", rec.Code, rec.Body, rec.Header().Get("Content-Type"))
	}
}

// pureService mounts two cached routes on a kernel: /pure?v=&n= answers a
// Tailed reply keyed by v and the parsed n, /plain?v= a reflection-encoded
// one; v=error is what it says.
func pureService() (http.Handler, *serve.Kernel, *serve.ReplyCache, *atomic.Int64) {
	k := serve.NewKernel(time.Minute, 64, nil)
	c := serve.NewReplyCache()
	runs := new(atomic.Int64)
	route := func(tailed bool) serve.PureRoute {
		return func(q url.Values) (string, func(context.Context) (any, error), error) {
			n, err := serve.QueryInt(q, "n", 7)
			if err != nil {
				return "", nil, err
			}
			v := q.Get("v")
			return v + "\x00" + strconv.FormatInt(n, 10), func(context.Context) (any, error) {
				runs.Add(1)
				var reply any = map[string]string{"v": v}
				if tailed {
					reply = tailedReply{v}
				}
				if v == "error" {
					return nil, &serve.Error{Status: http.StatusNotFound, Msg: "no such thing"}
				}
				return reply, nil
			}, nil
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/pure", k.GuardCached("pure", c, route(true)))
	mux.HandleFunc("/plain", k.GuardCached("plain", c, route(false)))
	return mux, k, c, runs
}

func serveGet(h http.Handler, target string, header ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestGuardCached: a pure route computes once per canonical key. The payload
// of a hit is the miss's bytes, the tail and Server-Timing are the hit's
// own, a stored reply carries an ETag that If-None-Match turns into a 304,
// and an error is answered and never kept.
func TestGuardCached(t *testing.T) {
	h, k, c, runs := pureService()
	missTiming := regexp.MustCompile(`^cache;desc=miss, engine;dur=\d+\.\d{3}, encode;dur=\d+\.\d{3}$`)
	hitTiming := regexp.MustCompile(`^cache;desc=hit, engine;dur=\d+\.\d{3}$`)
	hitBody := regexp.MustCompile(`^{"v":"a<b>","cost":{"rows":0,"cached":true,"us":\d+}}\n$`)

	miss := serveGet(h, "/pure?v=a%3Cb%3E")
	if miss.Code != 200 || miss.Body.String() != `{"v":"a<b>","cost":{"rows":42}}`+"\n" ||
		!missTiming.MatchString(miss.Header().Get("Server-Timing")) {
		t.Errorf("miss = %d %q, Server-Timing %q", miss.Code, miss.Body, miss.Header().Get("Server-Timing"))
	}
	etag := miss.Header().Get("ETag")
	// Every spelling of the request the route parses to the same fields:
	// parameter order, the default spelled out, a leading zero, a parameter
	// the route does not read.
	for _, target := range []string{"/pure?v=a%3Cb%3E", "/pure?n=7&v=a%3Cb%3E", "/pure?v=a%3Cb%3E&n=007", "/pure?v=a%3Cb%3E&nonce=123"} {
		hit := serveGet(h, target)
		if hit.Code != 200 || !hitBody.MatchString(hit.Body.String()) || !hitTiming.MatchString(hit.Header().Get("Server-Timing")) ||
			hit.Header().Get("ETag") != etag || hit.Header().Get("Content-Length") != strconv.Itoa(hit.Body.Len()) {
			t.Errorf("%s = %d %q, Server-Timing %q, ETag %q (miss had %q)", target, hit.Code, hit.Body,
				hit.Header().Get("Server-Timing"), hit.Header().Get("ETag"), etag)
		}
	}
	if other := serveGet(h, "/pure?v=a%3Cb%3E&n=8"); !missTiming.MatchString(other.Header().Get("Server-Timing")) {
		t.Errorf("n=8 is another request: Server-Timing %q", other.Header().Get("Server-Timing"))
	}
	if s := c.Snapshot(); runs.Load() != 2 || s["computes"] != 2 || s["hits"] != 4 || s["entries"] != 2 {
		t.Errorf("%d runs, cache = %v; want 2 computes, 4 hits", runs.Load(), s)
	}

	// Conditional GET, from the same lookup.
	if etag == "" {
		t.Fatal("a stored reply has no ETag")
	}
	cond := serveGet(h, "/pure?v=a%3Cb%3E", "If-None-Match", etag)
	if cond.Code != http.StatusNotModified || cond.Body.Len() != 0 || cond.Header().Get("ETag") != etag {
		t.Errorf("If-None-Match %s = %d with %d body bytes, ETag %q", etag, cond.Code, cond.Body.Len(), cond.Header().Get("ETag"))
	}
	if stale := serveGet(h, "/pure?v=a%3Cb%3E", "If-None-Match", `W/"0000"`); stale.Code != 200 || !hitBody.MatchString(stale.Body.String()) {
		t.Errorf("stale If-None-Match = %d %q", stale.Code, stale.Body)
	}
	if s := c.Snapshot(); s["not_modified"] != 1 || s["hits"] != 6 {
		t.Errorf("cache = %v, want 1 not_modified among 6 hits", s)
	}

	// A reflection-encoded reply is all payload: hit == miss, byte for byte.
	for i, desc := range []string{"miss", "hit"} {
		rec := serveGet(h, "/plain?v=a%3Cb%3E")
		if rec.Code != 200 || rec.Body.String() != `{"v":"a<b>"}`+"\n" || !strings.HasPrefix(rec.Header().Get("Server-Timing"), "cache;desc="+desc) {
			t.Errorf("/plain request %d = %d %q, Server-Timing %q", i, rec.Code, rec.Body, rec.Header().Get("Server-Timing"))
		}
	}

	// Never kept: errors, from the parse or from the compute.
	before := c.Snapshot()
	for i := 0; i < 2; i++ {
		if rec := serveGet(h, "/pure?v=x&n=1.5"); rec.Code != 400 {
			t.Errorf("bad integer = %d", rec.Code)
		}
		if rec := serveGet(h, "/pure?v=error"); rec.Code != 404 || rec.Body.String() != `{"error":"no such thing"}`+"\n" || rec.Header().Get("ETag") != "" {
			t.Errorf("error reply = %d %q", rec.Code, rec.Body)
		}
	}
	after := c.Snapshot()
	if after["computes"]-before["computes"] != 2 || after["entries"] != before["entries"] {
		t.Errorf("cache went %v -> %v; want 2 computes (the 400s never looked), no new entry", before, after)
	}
	if lat := k.RouteLatencies(); lat["pure"]["count"] != 12 || lat["plain"]["count"] != 2 {
		t.Errorf("route latencies = %v", lat)
	}
}
