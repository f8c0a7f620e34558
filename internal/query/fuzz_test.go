package query

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// fuzzRoutes are the routes FuzzQueryParams sends query strings to: the raw
// routes and every analysis.
func fuzzRoutes() []string {
	routes := []string{"/api/v1/range", "/api/v1/rollup"}
	var names []string
	for name := range analysisRoutes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		routes = append(routes, "/api/v1/analysis/"+name)
	}
	return routes
}

// fuzzParams are the words a 4xx reply may name the request's fault by: a
// parameter one of the routes reads, or the query string as a whole.
var fuzzParams = []string{"dataset", "column", "node", "t0", "t1", "step", "group", "cluster", "window", "query string"}

// FuzzQueryParams sends arbitrary query strings to /api/v1/range, /rollup
// and every /analysis route of a handler over a small committed archive — a
// 16-node, 2-hour run with its node-power dataset, as summitsim writes it.
// Every request is answered with a 2xx, or with a 4xx whose body names the
// parameter at fault; never with a 5xx, and never with a panic.
func FuzzQueryParams(f *testing.F) {
	dir := f.TempDir()
	cfg := sim.Scaled(16, 2*3600)
	nodes, err := core.NewNodeDatasetWriter(dir, cfg.Nodes, cfg.Site)
	if err != nil {
		f.Fatal(err)
	}
	data, _, err := core.CollectRun(cfg, nodes)
	if err != nil {
		f.Fatal(err)
	}
	if err := core.WriteDatasets(dir, data); err != nil {
		f.Fatal(err)
	}
	eng, err := Open(Config{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	h := singleHandler(f, eng, nil, ServerConfig{MaxPoints: 5000})
	routes := fuzzRoutes()
	for i, q := range []string{
		"",
		"dataset=node-power&column=input_power.mean&node=3&t0=1577836800&t1=1577840400&step=600",
		"dataset=node-power&column=input_power.max&step=0",
		"dataset=cluster-power&column=sum_inp&t0=abc",
		"dataset=node-power&column=input_power.mean&group=msb&step=600",
		"dataset=node-power&column=input_power.mean&group=fleet&step=1",
		"dataset=run-meta&column=nodes",
		"dataset=allocations&column=project",
		"dataset=job-series&column=sum_inp&node=1",
		"dataset=node-power&column=input_power.mean&node=99",
		"dataset=node-power&column=input_power.mean&t0=-9223372036854775808&step=600",
		"t0=5&t1=5", "step=-1", "group=planet", "cluster=nope", "window=0", "window=-7", "window=x",
		"%zz", "t0=1;step=600", "column=&dataset=",
	} {
		f.Add(uint8(i), q)
	}
	f.Fuzz(func(t *testing.T, route uint8, rawQuery string) {
		path := routes[int(route)%len(routes)]
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.URL.RawQuery = rawQuery
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		body := rec.Body.String()
		switch code := rec.Code; {
		case code >= 200 && code < 300:
		case code >= 400 && code < 500:
			for _, p := range fuzzParams {
				if strings.Contains(body, p) {
					return
				}
			}
			t.Fatalf("%s?%s: %d names no parameter: %s", path, rawQuery, code, body)
		default:
			t.Fatalf("%s?%s: %d: %s", path, rawQuery, code, body)
		}
	})
}
