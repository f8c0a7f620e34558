package query

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/source"
	"repro/internal/store"
)

// singleHandler serves one anonymous cluster — the pre-fleet shape most
// tests use — and hands back the concrete handler. A nil src is the
// engine's own archive handle, as cmd/queryd serves it.
func singleHandler(t testing.TB, eng *Engine, src source.RunSource, cfg ServerConfig) *handler {
	t.Helper()
	if src == nil {
		src = eng.Source()
	}
	h, err := NewFleetHandler([]Cluster{{Engine: eng, Source: src}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h.(*handler)
}

func testServer(t *testing.T, cfg ServerConfig) (*httptest.Server, *Engine) {
	t.Helper()
	e := testEngine(t)
	srv := httptest.NewServer(singleHandler(t, e, nil, cfg))
	t.Cleanup(srv.Close)
	return srv, e
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPHealthz(t *testing.T) {
	srv, _ := testServer(t, ServerConfig{})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

func TestHTTPDatasets(t *testing.T) {
	srv, _ := testServer(t, ServerConfig{})
	var body struct {
		Datasets []struct {
			Name    string   `json:"name"`
			Days    int      `json:"days"`
			Rows    int64    `json:"rows"`
			MinTime *int64   `json:"min_time"`
			Columns []string `json:"columns"`
		} `json:"datasets"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/datasets", &body); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(body.Datasets) != 3 || body.Datasets[1].Name != "node-power" {
		t.Fatalf("datasets = %+v", body.Datasets)
	}
	if body.Datasets[1].Days != fixDays || body.Datasets[1].MinTime == nil {
		t.Errorf("node-power inventory = %+v", body.Datasets[1])
	}
}

type rangeBody struct {
	Dataset string `json:"dataset"`
	Node    *int64 `json:"node"`
	Points  []struct {
		T int64    `json:"t"`
		V *float64 `json:"v"`
	} `json:"points"`
	Windows []struct {
		T     int64   `json:"t"`
		Count int64   `json:"count"`
		Mean  float64 `json:"mean"`
	} `json:"windows"`
	Stats struct {
		DaysScanned int   `json:"days_scanned"`
		DaysPruned  int   `json:"days_pruned"`
		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
		Cached      bool  `json:"cached"`
	} `json:"stats"`
}

func TestHTTPRange(t *testing.T) {
	srv, _ := testServer(t, ServerConfig{})
	u := srv.URL + "/api/v1/range?" + url.Values{
		"dataset": {"node-power"}, "column": {"input_power.mean"},
		"node": {"3"}, "t0": {"0"}, "t1": {"3600"},
	}.Encode()
	var body rangeBody
	if code := getJSON(t, u, &body); code != 200 {
		t.Fatalf("status %d", code)
	}
	if body.Node == nil || *body.Node != 3 {
		t.Errorf("node echo = %v", body.Node)
	}
	if len(body.Points) != int(3600/fixStep) {
		t.Fatalf("%d points", len(body.Points))
	}
	for _, p := range body.Points {
		if p.V == nil || *p.V != fixPower(3, p.T) {
			t.Fatalf("point %+v", p)
		}
	}
	if body.Stats.DaysScanned != 1 || body.Stats.DaysPruned != fixDays-1 {
		t.Errorf("stats = %+v", body.Stats)
	}
}

func TestHTTPRangeDownsampledAndCached(t *testing.T) {
	srv, _ := testServer(t, ServerConfig{})
	// Three requests over the same day partition, a second apart in t1 so
	// each is its own reply-cache entry and reaches the engine.
	u := func(t1 string) string {
		return srv.URL + "/api/v1/range?" + url.Values{
			"dataset": {"cluster-power"}, "column": {"sum_inp"},
			"t0": {"0"}, "t1": {t1}, "step": {"1800"},
		}.Encode()
	}
	var body rangeBody
	if code := getJSON(t, u("7200"), &body); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(body.Windows) != 4 || len(body.Points) != 0 {
		t.Fatalf("windows=%d points=%d", len(body.Windows), len(body.Points))
	}
	if body.Windows[0].Count != 1800/fixStep {
		t.Errorf("window count = %d", body.Windows[0].Count)
	}
	if body.Stats.CacheMisses == 0 || body.Stats.Cached {
		t.Errorf("cold query reported no misses: %+v", body.Stats)
	}
	// Second query of the day: it is now hot, so it materializes and is
	// admitted to the table cache. Third: served from the table cache.
	var second rangeBody
	if code := getJSON(t, u("7199"), &second); code != 200 {
		t.Fatalf("status %d", code)
	}
	if second.Stats.CacheMisses == 0 {
		t.Errorf("second query stats = %+v", second.Stats)
	}
	var warm rangeBody
	if code := getJSON(t, u("7198"), &warm); code != 200 {
		t.Fatalf("status %d", code)
	}
	if warm.Stats.CacheHits == 0 || warm.Stats.CacheMisses != 0 || warm.Stats.Cached {
		t.Errorf("warm query stats = %+v", warm.Stats)
	}
	// The first request again: its reply is stored, nothing is scanned.
	var again rangeBody
	if code := getJSON(t, u("7200"), &again); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !again.Stats.Cached || again.Stats.DaysScanned != 0 || again.Stats.CacheHits != 0 || len(again.Windows) != 4 ||
		again.Windows[3] != body.Windows[3] {
		t.Errorf("repeated query: stats %+v, %d windows", again.Stats, len(again.Windows))
	}
}

func TestHTTPRangeErrors(t *testing.T) {
	srv, _ := testServer(t, ServerConfig{MaxPoints: 100})
	cases := []struct {
		name, query string
		status      int
	}{
		{"unknown dataset", "dataset=nope&column=x", 404},
		{"unknown column", "dataset=cluster-power&column=nope", 404},
		{"bad int", "dataset=cluster-power&column=sum_inp&t0=abc", 400},
		{"empty span", "dataset=cluster-power&column=sum_inp&t0=9&t1=9", 400},
		{"window budget", "dataset=cluster-power&column=sum_inp&t0=0&t1=86400&step=1", 413},
		{"raw points budget", "dataset=node-power&column=input_power.mean&t0=0&t1=86400", 413},
	}
	for _, tc := range cases {
		var body struct {
			Error string `json:"error"`
		}
		code := getJSON(t, srv.URL+"/api/v1/range?"+tc.query, &body)
		if code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.status, body.Error)
		}
		if body.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}

func TestHTTPMethodAndURILimits(t *testing.T) {
	srv, _ := testServer(t, ServerConfig{})
	resp, err := http.Post(srv.URL+"/api/v1/range", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("POST status %d", resp.StatusCode)
	}
	long := srv.URL + "/api/v1/range?dataset=" + strings.Repeat("a", serve.MaxQueryLen)
	if code := getJSON(t, long, nil); code != 414 {
		t.Errorf("long query status %d", code)
	}
}

func TestHTTPRollup(t *testing.T) {
	srv, _ := testServer(t, ServerConfig{})
	u := srv.URL + "/api/v1/rollup?" + url.Values{
		"dataset": {"node-power"}, "column": {"input_power.mean"},
		"group": {"cabinet"}, "t0": {"0"}, "t1": {"3600"}, "step": {"1800"},
	}.Encode()
	var body struct {
		Group  string `json:"group"`
		Series []struct {
			Group   int    `json:"group"`
			Label   string `json:"label"`
			Windows []struct {
				T     int64   `json:"t"`
				Count int64   `json:"count"`
				Sum   float64 `json:"sum"`
			} `json:"windows"`
		} `json:"series"`
	}
	if code := getJSON(t, u, &body); code != 200 {
		t.Fatalf("status %d", code)
	}
	if body.Group != "cabinet" || len(body.Series) != 2 {
		t.Fatalf("rollup = %+v", body)
	}
	if body.Series[0].Label != "cab000" || len(body.Series[0].Windows) != 2 {
		t.Errorf("series[0] = %+v", body.Series[0])
	}
	// Unknown group → 400.
	if code := getJSON(t, srv.URL+"/api/v1/rollup?dataset=node-power&column=input_power.mean&group=rack", nil); code != 400 {
		t.Errorf("unknown group status %d", code)
	}
}

// TestKernelContract: queryd's routes refuse, shed, time out and fail the
// way the shared serving kernel says.
func TestKernelContract(t *testing.T) {
	e := testEngine(t)
	servetest.Contract(t, servetest.Service{
		New: func(timeout time.Duration, maxConcurrent int) (http.Handler, *serve.Kernel) {
			h := singleHandler(t, e, nil, ServerConfig{Timeout: timeout, MaxConcurrent: maxConcurrent})
			return h, h.kernel
		},
		OK:     "/api/v1/datasets",
		BadInt: "/api/v1/range?dataset=cluster-power&column=sum_inp&t0=abc",
	})
}

// TestHTTPLoadShedding: with the only slot taken a query is shed, and
// /debug/vars — outside the limiter — counts it where it always did.
func TestHTTPLoadShedding(t *testing.T) {
	h := singleHandler(t, testEngine(t), nil, ServerConfig{MaxConcurrent: 1})
	srv := httptest.NewServer(h)
	defer srv.Close()
	release := servetest.Occupy(t, h.kernel)
	resp, err := http.Get(srv.URL + "/api/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed status = %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	var vars struct {
		Queries map[string]int64 `json:"queries"`
	}
	if code := getJSON(t, srv.URL+"/debug/vars", &vars); code != 200 {
		t.Fatalf("/debug/vars status %d while shedding", code)
	}
	if vars.Queries["rejected"] != 1 || vars.Queries["inflight"] != 1 {
		t.Errorf("queries = %+v, want rejected 1, inflight 1", vars.Queries)
	}
	// Slot freed: the same request now succeeds.
	release()
	if code := getJSON(t, srv.URL+"/api/v1/datasets", nil); code != 200 {
		t.Fatalf("post-shed status = %d", code)
	}
}

// TestHTTPVarsStoreBlock pins the `store` block of /debug/vars on an archive
// holding two cluster-power days: the open indexes both, the inventory
// indexes only the run-meta beside them, and a first-touch range reads each
// day's time and value members to their checksums, seeks over the column
// between them and never reaches the one after.
func TestHTTPVarsStoreBlock(t *testing.T) {
	dir := t.TempDir()
	ds, err := store.NewDataset(dir, "cluster-power")
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 2; day++ {
		t0 := int64(day) * daySec
		if err := ds.WriteDay(day, &store.Table{Cols: []store.Column{
			{Name: "timestamp", Ints: []int64{t0, t0 + 600, t0 + 1200}},
			{Name: "pue", Floats: []float64{1.1, 1.2, 1.1}},
			{Name: "sum_inp", Floats: []float64{5e6, 6e6, 7e6}},
			{Name: "supply_c", Floats: []float64{20, 21, 20}},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	commitArchive(t, dir, fixNodes)

	before := store.Stats()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(singleHandler(t, e, nil, ServerConfig{}))
	defer srv.Close()
	var inv struct {
		Datasets []struct {
			Name             string
			Days             int
			Rows             int64
			MinTime, MaxTime *int64
			Columns          []string
		}
	}
	if code := getJSON(t, srv.URL+"/api/v1/datasets", &inv); code != 200 || len(inv.Datasets) != 2 || inv.Datasets[0].Name != "cluster-power" {
		t.Fatalf("datasets: status %d, %+v", code, inv)
	}
	if d := inv.Datasets[0]; d.Days != 2 || d.Rows != 6 || len(d.Columns) != 4 {
		t.Errorf("inventory %+v, want 2 days, 6 rows, 4 columns", d)
	}
	var reply struct{ Points []struct{ V float64 } }
	if code := getJSON(t, srv.URL+"/api/v1/range?dataset=cluster-power&column=sum_inp", &reply); code != 200 || len(reply.Points) != 6 {
		t.Fatalf("range: status %d, %d points", code, len(reply.Points))
	}
	var vars struct {
		Store map[string]int64 `json:"store"`
	}
	if code := getJSON(t, srv.URL+"/debug/vars", &vars); code != 200 {
		t.Fatalf("status %d", code)
	}
	got := map[string]int64{
		"partitions_indexed": vars.Store["partitions_indexed"] - before.PartitionsIndexed,
		"members_skipped":    vars.Store["members_skipped"] - before.MembersSkipped,
		// The run-meta's header and six columns at open, each day's header
		// at open and the run-meta's at the inventory, then each day's
		// header, timestamp and sum_inp members at the range.
		"members_verified": vars.Store["members_verified"] - before.MembersVerified,
	}
	want := map[string]int64{"partitions_indexed": 3, "members_skipped": 2, "members_verified": 16}
	if len(vars.Store) != 3 || !reflect.DeepEqual(got, want) {
		t.Errorf("store block %v moved by %v, want %v", vars.Store, got, want)
	}
}

func TestHTTPVars(t *testing.T) {
	srv, _ := testServer(t, ServerConfig{})
	// Two scans of one day: the first streams via the iterator, the second
	// materializes (so bytes_decoded is counted). The third request repeats
	// the second and is answered from the reply cache: the engine's counters
	// count its runs, the route's histogram the requests.
	getJSON(t, srv.URL+"/api/v1/range?dataset=cluster-power&column=sum_inp&t0=0&t1=3600", nil)
	getJSON(t, srv.URL+"/api/v1/range?dataset=cluster-power&column=sum_inp&t0=0&t1=3599", nil)
	getJSON(t, srv.URL+"/api/v1/range?dataset=cluster-power&column=sum_inp&t0=0&t1=3599", nil)
	var vars struct {
		Queries map[string]int64            `json:"queries"`
		Cache   map[string]int64            `json:"cache"`
		Scan    map[string]int64            `json:"scan"`
		Latency map[string]any              `json:"latency_us"`
		Routes  map[string]map[string]int64 `json:"routes"`
		Replies map[string]int64            `json:"reply_cache"`
	}
	if code := getJSON(t, srv.URL+"/debug/vars", &vars); code != 200 {
		t.Fatalf("status %d", code)
	}
	if vars.Queries["range"] != 2 || vars.Routes["range"]["count"] != 3 || vars.Routes["rollup"] == nil {
		t.Errorf("range counter = %d, routes = %v", vars.Queries["range"], vars.Routes)
	}
	if vars.Replies["computes"] != 2 || vars.Replies["hits"] != 1 || vars.Replies["bytes"] == 0 {
		t.Errorf("reply_cache = %v", vars.Replies)
	}
	if vars.Scan["iter_scans"] == 0 {
		t.Errorf("scan = %+v", vars.Scan)
	}
	if vars.Cache["misses"] == 0 {
		t.Errorf("cache = %+v", vars.Cache)
	}
	if vars.Cache["max_bytes"] == 0 {
		t.Error("max_bytes missing")
	}
	if vars.Scan["bytes_decoded"] == 0 || vars.Scan["rows_scanned"] == 0 {
		t.Errorf("scan = %+v", vars.Scan)
	}
	if vars.Latency["count"] == nil {
		t.Errorf("latency = %+v", vars.Latency)
	}
}
