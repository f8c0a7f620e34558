package serve_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

// reply is an Encoder; timedReply one that also reports its engine time.
type reply struct{ s string }

func (r reply) AppendJSON(b []byte) []byte { return serve.AppendJSONString(b, r.s) }

type timedReply struct{ reply }

func (timedReply) EngineTime() time.Duration { return 1500 * time.Microsecond }

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
	mux.HandleFunc("/open", k.Unguarded(func() serve.Encoder { return reply{"open"} }))
	mux.HandleFunc("/api", k.Guard(func(_ context.Context, q url.Values) (any, error) {
		if _, err := serve.QueryInt(q.Get("n"), 0); err != nil {
			return nil, err
		}
		switch q.Get("reply") {
		case "encoder":
			return reply{"a<b>"}, nil
		case "timed":
			return timedReply{reply{"t"}}, nil
		case "body":
			return &serve.Body{JSON: []byte("[1]\n"), Timing: "memo;desc=hit"}, nil
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

// TestReplySwitch: the three reply forms and the three error forms each go
// out with the status, body and headers the services' golden tests expect.
func TestReplySwitch(t *testing.T) {
	h, k := toyService(0, 0)
	timing := regexp.MustCompile(`^engine;dur=1\.500, encode;dur=\d+\.\d{3}$`)
	for _, tc := range []struct {
		target string
		status int
		body   string
		timing func(string) bool
	}{
		{"/api", 200, `{"tag":"a<b>"}` + "\n", nil},
		{"/api?reply=encoder", 200, `"a<b>"` + "\n", nil},
		{"/api?reply=timed", 200, `"t"` + "\n", timing.MatchString},
		{"/api?reply=body", 200, "[1]\n", func(s string) bool { return s == "memo;desc=hit" }},
		{"/open", 200, `"open"` + "\n", nil},
		{"/api?reply=sentinel", http.StatusTeapot, `{"error":"brewing\nteapot"}` + "\n", nil},
		{"/api?reply=conflict", http.StatusConflict, `{"error":"grids differ"}` + "\n", nil},
		{"/api?reply=broken", 500, `{"error":"disk on fire"}` + "\n", nil},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.target, nil))
		if rec.Code != tc.status || rec.Body.String() != tc.body {
			t.Errorf("%s = %d %q, want %d %q", tc.target, rec.Code, rec.Body, tc.status, tc.body)
		}
		st := rec.Header().Get("Server-Timing")
		if tc.timing == nil && st != "" || tc.timing != nil && !tc.timing(st) {
			t.Errorf("%s: Server-Timing = %q", tc.target, st)
		}
	}
	if got := k.EncodeLatency.Snapshot()["count"]; got != 3 {
		t.Errorf("encode histogram counted %d replies, want the 3 Encoder ones", got)
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
