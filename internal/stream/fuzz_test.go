package stream

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/failures"
	"repro/internal/telemetry"
)

// liveRoutes are the routes FuzzLiveParams sends query strings to: every
// /api/v1/live route.
var liveRoutes = []string{
	"/api/v1/live/rollup", "/api/v1/live/edges", "/api/v1/live/bands",
	"/api/v1/live/earlywarning", "/api/v1/live/health",
}

// liveParams are the words a 4xx reply may name the request's fault by: a
// parameter one of the live routes reads, or the query string as a whole.
var liveParams = []string{"group", "limit", "rising", "query string"}

// FuzzLiveParams sends arbitrary query strings to every /api/v1/live route
// of a handler over a finished 2-node run — twelve windows of power with a
// rising and a falling fleet edge, a GPU temperature channel and one
// precursor→outcome failure pair. Every request is answered with a 2xx, or
// with a 4xx whose body names the parameter at fault; never with a 5xx,
// never with a panic, and never with a 2xx to a value of a parameter the
// route reads that it does not accept (an edges filter it ignored would
// answer with the unfiltered list).
func FuzzLiveParams(f *testing.F) {
	p := mustPipeline(f, Config{Nodes: 2})
	for w := int64(0); w < 12; w++ {
		v := 200.0
		if w >= 4 && w < 8 {
			v = 3000
		}
		p.Ingest([]telemetry.Sample{
			powerSample(0, w*10, 500),
			powerSample(1, w*10, v),
			{Node: 0, Metric: telemetry.GPUCoreTempMetric(0), T: w * 10, Value: 45},
		})
	}
	p.IngestEvents([]failures.Event{
		{Time: 5, Node: 0, Type: failures.MicrocontrollerWarning},
		{Time: 25, Node: 0, Type: failures.DriverErrorHandling},
	})
	p.Close()
	if _, total, _ := p.EdgesSnapshot(0); total != 2 {
		f.Fatalf("fixture has %d fleet edges, want 2", total)
	}
	h := NewHandler(p, ServeConfig{})
	for i, q := range []string{
		"",
		"group=fleet&limit=5", "group=cabinet", "group=msb&limit=-1", "group=planet",
		"limit=0", "limit=1", "limit=9223372036854775807", "limit=-9223372036854775808", "limit=x", "limit=",
		"rising=true", "rising=false&limit=1",
		"%zz", "limit=1;group=msb", "group=&limit=",
	} {
		f.Add(uint8(i), q)
	}
	f.Fuzz(func(t *testing.T, route uint8, rawQuery string) {
		path := liveRoutes[int(route)%len(liveRoutes)]
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.URL.RawQuery = rawQuery
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		body := rec.Body.String()
		switch code := rec.Code; {
		case code >= 200 && code < 300:
			if q, err := url.ParseQuery(rawQuery); err == nil && path == "/api/v1/live/edges" {
				if r := q.Get("rising"); r != "" && r != "true" && r != "false" {
					t.Fatalf("%s?%s: %d to rising=%q", path, rawQuery, code, r)
				}
			}
		case code >= 400 && code < 500:
			for _, param := range liveParams {
				if strings.Contains(body, param) {
					return
				}
			}
			t.Fatalf("%s?%s: %d names no parameter: %s", path, rawQuery, code, body)
		default:
			t.Fatalf("%s?%s: %d: %s", path, rawQuery, code, body)
		}
	})
}
