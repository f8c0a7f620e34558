package stream

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/telemetry"
)

// servedPipeline builds a small finished run: 2 nodes, 3 windows of
// power, one GPU temperature channel, and one precursor→outcome failure
// pair — enough to give every route non-trivial content.
func servedPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p := mustPipeline(t, Config{Nodes: 2})
	for w := int64(0); w < 3; w++ {
		p.Ingest([]telemetry.Sample{
			powerSample(0, w*10, 1000),
			powerSample(1, w*10, 2000),
			{Node: 0, Metric: telemetry.GPUCoreTempMetric(0), T: w * 10, Value: 45},
		})
	}
	p.IngestEvents([]failures.Event{
		{Time: 5, Node: 0, Type: failures.MicrocontrollerWarning},
		{Time: 25, Node: 0, Type: failures.DriverErrorHandling},
	})
	p.Close()
	return p
}

func getJSON(t *testing.T, srv *httptest.Server, path string) map[string]any {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", path, body, err)
	}
	return out
}

func TestHTTPRoutes(t *testing.T) {
	p := servedPipeline(t)
	srv := httptest.NewServer(NewHandler(p, ServeConfig{}))
	defer srv.Close()

	rollup := getJSON(t, srv, "/api/v1/live/rollup")
	if rollup["group"] != "fleet" || rollup["windows_total"] != float64(3) {
		t.Errorf("rollup = %v", rollup)
	}
	points := rollup["points"].([]any)
	if len(points) != 3 {
		t.Fatalf("fleet points = %d, want 3", len(points))
	}
	if v := points[0].(map[string]any)["v"]; v != float64(3000) {
		t.Errorf("fleet window 0 = %v, want 3000", v)
	}
	// 3 windows × 3000 W × 10 s.
	if rollup["energy_j"] != float64(90000) {
		t.Errorf("energy_j = %v, want 90000", rollup["energy_j"])
	}

	cab := getJSON(t, srv, "/api/v1/live/rollup?group=cabinet&limit=2")
	series := cab["series"].([]any)
	if len(series) != 1 {
		t.Fatalf("cabinet series = %d, want 1", len(series))
	}
	s0 := series[0].(map[string]any)
	if s0["label"] != "cabinet 0" || len(s0["points"].([]any)) != 2 {
		t.Errorf("cabinet series = %v", s0)
	}

	msb := getJSON(t, srv, "/api/v1/live/rollup?group=msb")
	if n := len(msb["series"].([]any)); n != 5 {
		t.Errorf("msb series = %d, want 5", n)
	}

	edges := getJSON(t, srv, "/api/v1/live/edges")
	if edges["threshold_w"] != float64(2*868) {
		t.Errorf("threshold_w = %v, want %v", edges["threshold_w"], 2*868)
	}

	bands := getJSON(t, srv, "/api/v1/live/bands")
	if bands["windows"] != float64(3) || bands["total_gpus"] != float64(12) {
		t.Errorf("bands = %v", bands)
	}
	if n := len(bands["summary"].([]any)); n == 0 {
		t.Error("bands summary empty")
	}

	ew := getJSON(t, srv, "/api/v1/live/earlywarning")
	pairs := ew["pairs"].([]any)
	if len(pairs) != 3 {
		t.Fatalf("earlywarning pairs = %d, want 3", len(pairs))
	}
	p0 := pairs[0].(map[string]any)
	if p0["precursors"] != float64(1) || p0["followed"] != float64(1) {
		t.Errorf("microcontroller pair = %v", p0)
	}

	health := getJSON(t, srv, "/api/v1/live/health")
	if health["status"] != "ok" || health["frames"] != float64(3) {
		t.Errorf("health = %v", health)
	}
	if health["watermark_t"] == nil {
		t.Error("watermark_t null after data")
	}

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
}

// TestHTTPGapWindowsAreNull: NaN rollup values (gap windows) must render
// as JSON null, never as invalid literals.
func TestHTTPGapWindowsAreNull(t *testing.T) {
	p := mustPipeline(t, Config{Nodes: 1})
	p.Ingest([]telemetry.Sample{powerSample(0, 0, 500)})
	p.Ingest([]telemetry.Sample{powerSample(0, 30, 500)})
	p.Close()
	srv := httptest.NewServer(NewHandler(p, ServeConfig{}))
	defer srv.Close()
	rollup := getJSON(t, srv, "/api/v1/live/rollup")
	points := rollup["points"].([]any)
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	if v := points[1].(map[string]any)["v"]; v != nil {
		t.Errorf("gap window = %v, want null", v)
	}
}

func TestHTTPErrors(t *testing.T) {
	p := servedPipeline(t)
	srv := httptest.NewServer(NewHandler(p, ServeConfig{}))
	defer srv.Close()

	check := func(path, method string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s %s = %d (%s), want %d", method, path, resp.StatusCode, body, want)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s %s: error body %q not {\"error\": ...}", method, path, body)
		}
	}
	check("/api/v1/live/rollup?group=nonsense", http.MethodGet, http.StatusBadRequest)
	check("/api/v1/live/rollup?limit=abc", http.MethodGet, http.StatusBadRequest)
	check("/api/v1/live/edges?limit=x", http.MethodGet, http.StatusBadRequest)
	check("/api/v1/live/rollup", http.MethodPost, http.StatusMethodNotAllowed)
	check("/api/v1/live/health", http.MethodPost, http.StatusMethodNotAllowed)
	check("/api/v1/live/rollup?pad="+strings.Repeat("x", serve.MaxQueryLen), http.MethodGet,
		http.StatusRequestURITooLong)
}

// TestKernelContract: streamd's routes refuse, shed, time out and fail the
// way the shared serving kernel says.
func TestKernelContract(t *testing.T) {
	p := servedPipeline(t)
	servetest.Contract(t, servetest.Service{
		New: func(timeout time.Duration, maxConcurrent int) (http.Handler, *serve.Kernel) {
			h := NewHandler(p, ServeConfig{Timeout: timeout, MaxConcurrent: maxConcurrent}).(*handler)
			return h, h.kernel
		},
		OK:     "/api/v1/live/rollup?group=cabinet",
		BadInt: "/api/v1/live/edges?limit=x",
	})
}

// TestHTTPShedsAtConcurrencyLimit: with the only slot taken an API route is
// shed with 503 + Retry-After instead of queueing, while both health routes
// — outside the limiter — still answer.
func TestHTTPShedsAtConcurrencyLimit(t *testing.T) {
	h := NewHandler(servedPipeline(t), ServeConfig{MaxConcurrent: 1}).(*handler)
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	release := servetest.Occupy(t, h.kernel) // the only slot

	rec := get("/api/v1/live/rollup")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	for _, path := range []string{"/api/v1/live/health", "/healthz"} {
		if rec := get(path); rec.Code != http.StatusOK {
			t.Errorf("%s while shedding = %d, want 200", path, rec.Code)
		}
	}

	release() // the same request must now succeed
	if rec := get("/api/v1/live/rollup"); rec.Code != http.StatusOK {
		t.Fatalf("status after release = %d, want 200", rec.Code)
	}
}

// TestHTTPHealthReportsDegradation: a pipeline that dropped late samples
// must say so on the health route.
func TestHTTPHealthReportsDegradation(t *testing.T) {
	p := mustPipeline(t, Config{Nodes: 1})
	p.Ingest([]telemetry.Sample{powerSample(0, 100, 1)})
	p.Ingest([]telemetry.Sample{powerSample(0, 12, 2)}) // late
	p.Close()
	srv := httptest.NewServer(NewHandler(p, ServeConfig{}))
	defer srv.Close()
	health := getJSON(t, srv, "/api/v1/live/health")
	if health["status"] != "degraded" || health["late"] != float64(1) {
		t.Errorf("health = %v", health)
	}
	if rs, ok := health["reasons"].([]any); !ok || len(rs) == 0 {
		t.Errorf("reasons = %v", health["reasons"])
	}
}

// TestHTTPLiveRepliesAreNeverStored: a live route's answer is the state of
// the pipeline now, so the same URL polled across a window close answers
// differently and carries no validator; /debug/vars serves the kernel's
// counters with both polls under the route's name.
func TestHTTPLiveRepliesAreNeverStored(t *testing.T) {
	p := mustPipeline(t, Config{Nodes: 2})
	h := NewHandler(p, ServeConfig{})
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
		return rec
	}
	p.Ingest([]telemetry.Sample{powerSample(0, 0, 1000), powerSample(1, 0, 2000)})
	first := get("/api/v1/live/rollup")
	p.Ingest([]telemetry.Sample{powerSample(0, 10, 1000), powerSample(1, 10, 2000)})
	p.Close() // every window closes
	second := get("/api/v1/live/rollup")
	if first.Body.String() == second.Body.String() || !strings.Contains(second.Body.String(), `"windows_total":2`) {
		t.Errorf("rollup before and after the windows closed:\n%s%s", first.Body, second.Body)
	}
	for _, rec := range []*httptest.ResponseRecorder{first, second} {
		if rec.Header().Get("ETag") != "" || rec.Header().Get("Server-Timing") != "" {
			t.Errorf("live reply carries ETag %q, Server-Timing %q", rec.Header().Get("ETag"), rec.Header().Get("Server-Timing"))
		}
	}
	get("/api/v1/live/health")
	var vars struct {
		Rejected, Inflight *int64
		EncodeNS           map[string]int64            `json:"encode_ns"`
		Routes             map[string]map[string]int64 `json:"routes"`
	}
	if err := json.Unmarshal(get("/debug/vars").Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	if vars.Rejected == nil || vars.Inflight == nil || vars.EncodeNS["count"] != 3 ||
		vars.Routes["rollup"]["count"] != 2 || vars.Routes["health"]["count"] != 1 || vars.Routes["edges"] == nil {
		t.Errorf("/debug/vars = %+v", vars)
	}
}
