package query

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/tsagg"
)

// writeSimArchive simulates a small cluster (one full day plus two hours:
// two partitions) into dir the way summitsim -nodedata does, so every
// analysis route has its datasets.
func writeSimArchive(t testing.TB, dir string) {
	t.Helper()
	cfg := sim.Config{
		Seed: 7, Nodes: 18, StartTime: 1_577_836_800, DurationSec: 86400 + 7200,
		StepSec: 300, SamplesPerWindow: 1, Jobs: 8,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := core.NewCollector(s, cfg)
	nw, err := core.NewNodeDatasetWriter(dir, cfg.Nodes, cfg.Site)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(col, nw)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	col.SetFailures(res.Failures)
	if err := core.WriteDatasets(dir, col.Data()); err != nil {
		t.Fatal(err)
	}
}

// memoFixture is a handler over a simulated archive, with the pieces a
// test needs to reach around it.
type memoFixture struct {
	dir string
	eng *Engine
	src *source.ArchiveSource
	h   *handler
}

func newMemoFixture(t testing.TB) *memoFixture {
	t.Helper()
	dir := t.TempDir()
	writeSimArchive(t, dir)
	return openMemoFixture(t, dir)
}

// openMemoFixture opens the archive in dir as it is now.
func openMemoFixture(t testing.TB, dir string) *memoFixture {
	t.Helper()
	f := &memoFixture{dir: dir}
	var err error
	if f.eng, err = Open(Config{Dir: dir, Nodes: 18}); err != nil {
		t.Fatal(err)
	}
	f.src = f.eng.Source()
	f.h = singleHandler(t, f.eng, f.src, ServerConfig{})
	return f
}

// get serves one request straight into a recorder.
func get(t testing.TB, h http.Handler, ctx context.Context, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil).WithContext(ctx))
	return rec
}

// memoVars reads reply_cache out of /debug/vars.
func memoVars(t testing.TB, h http.Handler) map[string]int64 {
	t.Helper()
	var vars struct {
		Memo map[string]int64 `json:"reply_cache"`
	}
	rec := get(t, h, context.Background(), "/debug/vars")
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil || vars.Memo == nil {
		t.Fatalf("/debug/vars: %v: %s", err, rec.Body.Bytes())
	}
	return vars.Memo
}

// TestMemoizedRepliesMatchEncodingJSON: for every cached route the first
// (computed) and the second (stored) reply carry the same payload, and that
// is what encoding/json makes of the route's reply value — the body the
// route sent before there was a cache. A range or rollup reply differs
// between the two in its stats block alone, which says what each cost.
func TestMemoizedRepliesMatchEncodingJSON(t *testing.T) {
	f := newMemoFixture(t)
	ctx := context.Background()
	want := map[string][]byte{}
	for name, route := range analysisRoutes {
		_, compute, err := route(nil)
		if err != nil {
			t.Fatal(err)
		}
		v, err := compute(f.src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want["/api/v1/analysis/"+name] = stdJSON(t, v)
	}
	members := []*Cluster{{Engine: f.eng, Source: f.src}}
	v, err := fleetSummaryReply(members)
	if err != nil {
		t.Fatal(err)
	}
	want["/api/v1/fleet/summary"] = stdJSON(t, v)
	if v, err = f.h.fleetSeriesReply("sum_inp", members); err != nil {
		t.Fatal(err)
	}
	want["/api/v1/fleet/series?name=sum_inp"] = stdJSON(t, v)
	if v, err = datasetsReply(f.eng); err != nil {
		t.Fatal(err)
	}
	want["/api/v1/datasets"] = stdJSON(t, v)
	analyses := f.eng.Metrics().AnalysisQueries.Load()
	// A scan, a read from the pre-aggregates, raw points.
	for url, req := range map[string]RangeRequest{
		"/api/v1/range?dataset=cluster-power&column=sum_inp&step=3600":                  {Dataset: "cluster-power", Column: "sum_inp", Node: -1, T1: math.MaxInt64, Step: 3600},
		"/api/v1/range?dataset=node-power&column=input_power.mean&step=600":             {Dataset: "node-power", Column: "input_power.mean", Node: -1, T1: math.MaxInt64, Step: 600},
		"/api/v1/range?dataset=node-power&column=input_power.mean&node=3&t1=1577840400": {Dataset: "node-power", Column: "input_power.mean", Node: 3, T1: 1_577_840_400},
	} {
		res, err := f.eng.Range(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		want[url] = stdJSON(t, legacyRange(res))
	}
	for _, g := range []GroupBy{GroupCabinet, GroupFleet} {
		res, err := f.eng.Rollup(ctx, RollupRequest{Dataset: "node-power", Column: "input_power.mean",
			Group: g, T0: 0, T1: math.MaxInt64, Step: 1800})
		if err != nil {
			t.Fatal(err)
		}
		want["/api/v1/rollup?dataset=node-power&column=input_power.mean&step=1800&group="+string(g)] = stdJSON(t, legacyRollup(res))
	}
	oracleRuns := f.eng.Metrics().RangeQueries.Load() + f.eng.Metrics().RollupQueries.Load()

	tailed := int64(0)
	for url, body := range want {
		hasStats := !bytes.Equal(stripStatsBlock(body), body)
		if hasStats {
			tailed++
		}
		var etag string
		for i, desc := range []string{"miss", "hit"} {
			rec := get(t, f.h, ctx, url)
			got := rec.Body.Bytes()
			if rec.Code != 200 || !bytes.Equal(stripStatsBlock(got), stripStatsBlock(body)) {
				t.Errorf("%s request %d: status %d, body differs from encoding/json:\n got %.200s\nwant %.200s",
					url, i, rec.Code, got, body)
			}
			if !hasStats && !bytes.Equal(got, body) {
				t.Errorf("%s request %d: body differs from encoding/json past a stats block it does not have", url, i)
			}
			if cached := bytes.Contains(got, []byte(`,"cached":true,"elapsed_us":`)); hasStats && cached != (i == 1) {
				t.Errorf("%s request %d: stats block %s, cached = %v", url, i, got[len(stripStatsBlock(got)):], cached)
			}
			if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
				t.Errorf("%s request %d: Content-Length %q, want %d", url, i, got, rec.Body.Len())
			}
			if got := rec.Header().Get("Server-Timing"); !strings.HasPrefix(got, "cache;desc="+desc+", engine;dur=") {
				t.Errorf("%s request %d: Server-Timing %q, want cache;desc=%s, engine;dur=…", url, i, got, desc)
			}
			if i == 0 {
				etag = rec.Header().Get("ETag")
			} else if got := rec.Header().Get("ETag"); got == "" || got != etag {
				t.Errorf("%s: ETag %q on the miss, %q on the hit", url, etag, got)
			}
		}
		if rec := get(t, f.h, ctx, url); !bytes.Equal(stripStatsBlock(rec.Body.Bytes()), stripStatsBlock(body)) {
			t.Errorf("%s: third reply differs", url)
		}
	}
	m := memoVars(t, f.h)
	n := int64(len(want))
	if m["computes"] != n || m["hits"] != 2*n || m["entries"] != n || m["waits"] != 0 {
		t.Errorf("reply_cache = %v, want %d computes and entries, twice the hits", m, n)
	}
	// The engine's counters count its runs, not the requests: one per key.
	if got := f.eng.Metrics().AnalysisQueries.Load() - analyses; got != int64(len(analysisRoutes))+2 {
		t.Errorf("analysis counter rose by %d over %d routes asked three times each", got, len(analysisRoutes)+2)
	}
	if got := f.eng.Metrics().RangeQueries.Load() + f.eng.Metrics().RollupQueries.Load() - oracleRuns; got != tailed {
		t.Errorf("range+rollup counters rose by %d over %d URLs asked three times each", got, tailed)
	}
}

// TestReplyCacheKeyIsTheParsedRequest: parameter order, a spelled-out
// default, a leading zero and a parameter the route does not read all
// address the entry of the request they parse to; a parameter the route does
// read makes another.
func TestReplyCacheKeyIsTheParsedRequest(t *testing.T) {
	f := newMemoFixture(t)
	ctx := context.Background()
	for _, tc := range []struct {
		same  []string
		other string
	}{
		{[]string{
			"/api/v1/range?dataset=cluster-power&column=sum_inp&step=600",
			"/api/v1/range?step=600&column=sum_inp&dataset=cluster-power",
			"/api/v1/range?dataset=cluster-power&column=sum_inp&step=0600&node=-1&t0=0",
			"/api/v1/range?dataset=cluster-power&column=sum_inp&step=600&nonce=42&group=msb",
		}, "/api/v1/range?dataset=cluster-power&column=sum_inp&step=601"},
		{[]string{
			"/api/v1/rollup?dataset=node-power&column=input_power.mean",
			"/api/v1/rollup?column=input_power.mean&dataset=node-power&group=cabinet&step=600",
			"/api/v1/rollup?dataset=node-power&column=input_power.mean&node=3&_=1",
		}, "/api/v1/rollup?dataset=node-power&column=input_power.mean&group=msb"},
		{[]string{"/api/v1/datasets", "/api/v1/datasets?cluster=&nonce=1"}, ""},
		{[]string{"/api/v1/fleet/series?name=sum_inp", "/api/v1/fleet/series?nonce=1&name=sum_inp"},
			"/api/v1/fleet/series?name=pue"},
	} {
		before := memoVars(t, f.h)
		var first []byte
		for i, url := range tc.same {
			rec := get(t, f.h, ctx, url)
			if rec.Code != 200 {
				t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body.Bytes())
			}
			if i == 0 {
				first = stripStatsBlock(rec.Body.Bytes())
			} else if !bytes.Equal(stripStatsBlock(rec.Body.Bytes()), first) {
				t.Errorf("%s: payload differs from %s", url, tc.same[0])
			}
		}
		want := int64(1)
		if tc.other != "" {
			want = 2
			if rec := get(t, f.h, ctx, tc.other); rec.Code != 200 || bytes.Equal(stripStatsBlock(rec.Body.Bytes()), first) {
				t.Errorf("%s: status %d, payload equal to %s's: %v", tc.other, rec.Code, tc.same[0], rec.Code == 200)
			}
		}
		after := memoVars(t, f.h)
		if got := after["entries"] - before["entries"]; got != want || after["computes"]-before["computes"] != want {
			t.Errorf("%s and its %d spellings: reply_cache went %v -> %v, want %d new entries",
				tc.same[0], len(tc.same)-1, before, after, want)
		}
	}
}

// gatedSource blocks every Series read until the gate opens, and reports
// each read that reached it.
type gatedSource struct {
	source.RunSource
	gate    chan struct{}
	reached chan struct{}
}

func (g *gatedSource) Series(name string) (*tsagg.Series, error) {
	select {
	case g.reached <- struct{}{}:
	default:
	}
	<-g.gate
	return g.RunSource.Series(name)
}

// TestMemoComputesOnceUnderConcurrency: 32 concurrent first requests run the
// analysis once; a waiter whose deadline passes is answered 504 while the
// computing request goes on to finish and store.
func TestMemoComputesOnceUnderConcurrency(t *testing.T) {
	f := newMemoFixture(t)
	gs := &gatedSource{RunSource: f.src, gate: make(chan struct{}), reached: make(chan struct{}, 1)}
	h := singleHandler(t, f.eng, gs, ServerConfig{MaxConcurrent: 64})
	const url = "/api/v1/analysis/edges"

	const clients = 32
	codes := make([]int, clients)
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := get(t, h, context.Background(), url)
			codes[i], bodies[i] = rec.Code, rec.Body.Bytes()
		}(i)
	}
	<-gs.reached // the leader is inside the analysis
	for memoVars(t, h)["waits"] < clients-1 {
		time.Sleep(time.Millisecond)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if rec := get(t, h, expired, url); rec.Code != http.StatusGatewayTimeout {
		t.Errorf("expired waiter: status %d, want 504", rec.Code)
	}
	close(gs.gate)
	wg.Wait()
	for i := range codes {
		if codes[i] != 200 || !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d: status %d, body equal to client 0's: %v", i, codes[i], bytes.Equal(bodies[i], bodies[0]))
		}
	}
	m := memoVars(t, h)
	if m["computes"] != 1 || m["waits"] != clients || m["entries"] != 1 {
		t.Errorf("reply_cache = %v, want 1 compute, %d waits, 1 entry", m, clients)
	}
	if rec := get(t, h, context.Background(), url); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), bodies[0]) {
		t.Errorf("stored reply: status %d", rec.Code)
	}
	if m := memoVars(t, h); m["computes"] != 1 || m["hits"] != 1 {
		t.Errorf("after the stored reply: reply_cache = %v, want 1 compute, 1 hit", m)
	}
}

// TestMemoKeysAndBounds: errors are answered but never stored; the key is
// the parsed parameters, so distinct windows are distinct entries and
// parameters a route does not read make none; a client sweeping a parameter
// adds an entry per value and what the cache reports holding stays under its
// budget (displacement at the budget is pinned in internal/serve).
func TestMemoKeysAndBounds(t *testing.T) {
	ctx := context.Background()
	// The plain fixture archive has cluster-power only: bands is 404.
	srv, _ := analysisServer(t)
	for i := 0; i < 2; i++ {
		if code := getJSON(t, srv.URL+"/api/v1/analysis/bands", nil); code != 404 {
			t.Fatalf("bands without its series: status %d, want 404", code)
		}
		if code := getJSON(t, srv.URL+"/api/v1/analysis/earlywarning?window=0", nil); code != 400 {
			t.Fatalf("window=0: status %d, want 400", code)
		}
	}
	var vars struct {
		Memo map[string]int64 `json:"reply_cache"`
	}
	if code := getJSON(t, srv.URL+"/debug/vars", &vars); code != 200 {
		t.Fatal(code)
	}
	if m := vars.Memo; m["computes"] != 2 || m["entries"] != 0 || m["hits"] != 0 {
		t.Errorf("after two 404s and two 400s: reply_cache = %v, want 2 computes, no entry", m)
	}

	f := newMemoFixture(t)
	for _, url := range []string{
		"/api/v1/analysis/earlywarning",
		"/api/v1/analysis/earlywarning?window=3600", // the default, spelled out
		"/api/v1/analysis/earlywarning?window=3600&nonce=1",
		"/api/v1/analysis/earlywarning?window=1800",
		"/api/v1/analysis/edges?nonce=2",
		"/api/v1/analysis/edges?nonce=3&window=9",
	} {
		if rec := get(t, f.h, ctx, url); rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body.Bytes())
		}
	}
	if m := memoVars(t, f.h); m["computes"] != 3 || m["entries"] != 3 || m["hits"] != 3 {
		t.Errorf("reply_cache = %v, want 3 computes and entries (two windows, edges), 3 hits", m)
	}
	const sweep = 300
	var payload int64
	for w := 1; w <= sweep; w++ {
		rec := get(t, f.h, ctx, fmt.Sprintf("/api/v1/analysis/earlywarning?window=%d", 100000+w))
		if rec.Code != 200 {
			t.Fatalf("window sweep: status %d", rec.Code)
		}
		payload += int64(rec.Body.Len())
	}
	if m := memoVars(t, f.h); m["entries"] != 3+sweep || m["evictions"] != 0 || m["bytes"] < payload || m["bytes"] > serve.ReplyCacheBudget {
		t.Errorf("after a window sweep: reply_cache = %v, want %d entries holding at least the %d payload bytes", m, 3+sweep, payload)
	}
}

// TestMemoSkipsOversizedReplies: a body over the per-entry bound is sent
// and recomputed, never stored.
func TestMemoSkipsOversizedReplies(t *testing.T) {
	jobs := make([]source.JobRecord, 4000)
	src := &source.MemorySource{Jobs: jobs}
	h := singleHandler(t, testEngine(t), src, ServerConfig{})
	for i := 0; i < 2; i++ {
		rec := get(t, h, context.Background(), "/api/v1/analysis/jobs")
		if rec.Code != 200 || rec.Body.Len() <= serve.ReplyCacheMaxEntry || rec.Header().Get("ETag") != "" {
			t.Fatalf("jobs: status %d, %d bytes, ETag %q; the fixture should exceed the 256 KB entry cap",
				rec.Code, rec.Body.Len(), rec.Header().Get("ETag"))
		}
	}
	if m := memoVars(t, h); m["computes"] != 2 || m["not_stored_too_large"] != 2 || m["entries"] != 0 {
		t.Errorf("reply_cache = %v, want 2 computes, 2 not_stored_too_large, no entry", m)
	}
}

// TestCorruptColumnIsAnErrorNeverStored: a flipped byte inside a column
// member the summary reads is answered 500 naming the partition — dataset
// and day — and the column, every time: the error is computed again for
// each request and never stored, so it carries no ETag.
func TestCorruptColumnIsAnErrorNeverStored(t *testing.T) {
	dir := t.TempDir()
	writeSimArchive(t, dir)
	flipColumnMember(t, filepath.Join(dir, "cluster-power-day00000.spwr"), source.SeriesPUE)
	f := openMemoFixture(t, dir)
	for i := int64(1); i <= 2; i++ {
		rec := get(t, f.h, context.Background(), "/api/v1/analysis/summary")
		var body struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("request %d: %v: %s", i, err, rec.Body)
		}
		if rec.Code != http.StatusInternalServerError || rec.Header().Get("ETag") != "" ||
			!strings.Contains(body.Error, `dataset "cluster-power"`) || !strings.Contains(body.Error, "cluster-power-day00000.spwr") ||
			!strings.Contains(body.Error, fmt.Sprintf("column %q", source.SeriesPUE)) {
			t.Fatalf("request %d: %d %s, ETag %q; want a 500 naming dataset cluster-power, day file cluster-power-day00000.spwr and column %q",
				i, rec.Code, rec.Body, rec.Header().Get("ETag"), source.SeriesPUE)
		}
		if m := memoVars(t, f.h); m["computes"] != i || m["entries"] != 0 {
			t.Fatalf("request %d: reply_cache = %v, want %d computes and no entry", i, m, i)
		}
	}
}

// flipColumnMember flips one byte in the middle of the gzip member that holds
// column col of the partition at path (member 0 is the table header, then
// one member per column in table order).
func flipColumnMember(t *testing.T, path, col string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := store.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	member := -1
	for i := 1; member < 0; i++ {
		info, err := sr.Next()
		if err != nil {
			t.Fatalf("%s: no column %q: %v", path, col, err)
		}
		if info.Name == col {
			member = i
		} else if err := sr.Skip(); err != nil {
			t.Fatal(err)
		}
	}
	// A bytes.Reader is a flate.Reader, so gzip reads it without buffering
	// ahead: what is left of it after a member is where the next one starts.
	r := bytes.NewReader(raw)
	var start, end int
	for i := 0; i <= member; i++ {
		start = len(raw) - r.Len()
		zr, err := gzip.NewReader(r)
		if err != nil {
			t.Fatal(err)
		}
		zr.Multistream(false)
		if _, err := io.Copy(io.Discard, zr); err != nil {
			t.Fatal(err)
		}
		end = len(raw) - r.Len()
	}
	raw[(start+end)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestArchiveIsFrozenAtOpen pins the invariant the reply cache rests on: the
// server reads the archive as it was at open. A day partition written
// afterwards is invisible to the inventory, to range queries and to the
// analyses alike, whether the reply was stored before the partition landed
// or is computed after — so a stored answer cannot go stale against its own
// server.
func TestArchiveIsFrozenAtOpen(t *testing.T) {
	f := newMemoFixture(t)
	ctx := context.Background()
	urls := []string{
		"/api/v1/datasets",
		"/api/v1/range?dataset=cluster-power&column=sum_inp&step=3600",
		"/api/v1/analysis/summary",
		"/api/v1/analysis/bands",
	}
	before := map[string][]byte{}
	for _, url := range urls {
		rec := get(t, f.h, ctx, url)
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", url, rec.Code)
		}
		before[url] = stripStatsBlock(rec.Body.Bytes())
	}
	// Append day 2 to both datasets: day 1 again, shifted a day forward.
	for _, name := range []string{"cluster-power", "node-power"} {
		ds, err := store.NewDataset(f.dir, name)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := ds.ReadDay(1)
		if err != nil {
			t.Fatal(err)
		}
		ts := tab.Col("timestamp").Ints
		for i := range ts {
			ts[i] += daySec
		}
		if err := ds.WriteDay(2, tab); err != nil {
			t.Fatal(err)
		}
	}
	for _, url := range urls {
		rec := get(t, f.h, ctx, url)
		if !bytes.Equal(stripStatsBlock(rec.Body.Bytes()), before[url]) {
			t.Errorf("%s changed after a partition was added under the open server", url)
		}
		if !strings.HasPrefix(rec.Header().Get("Server-Timing"), "cache;desc=hit") {
			t.Errorf("%s: Server-Timing %q, want the stored reply", url, rec.Header().Get("Server-Timing"))
		}
	}
	// Not the cache hiding it: a handler over the same engine and source,
	// its cache empty, computes the same answers — as does the first handler
	// for a range it was never asked before the partition landed.
	fresh := singleHandler(t, f.eng, f.src, ServerConfig{})
	for _, url := range urls {
		if rec := get(t, fresh, ctx, url); !bytes.Equal(stripStatsBlock(rec.Body.Bytes()), before[url]) {
			t.Errorf("%s: a fresh cache over the open archive sees the added partition", url)
		}
	}
	const unasked = "/api/v1/range?dataset=cluster-power&column=sum_inp&step=1800"
	late := get(t, f.h, ctx, unasked)
	if !strings.HasPrefix(late.Header().Get("Server-Timing"), "cache;desc=miss") ||
		bytes.Contains(late.Body.Bytes(), []byte(`"days_total":3`)) {
		t.Errorf("%s, computed after the partition landed: Server-Timing %q, stats %s", unasked,
			late.Header().Get("Server-Timing"), late.Body.Bytes()[len(stripStatsBlock(late.Body.Bytes())):])
	}
	// A reopened archive does see it.
	reopened := openMemoFixture(t, f.dir).h
	for _, url := range append(urls, unasked) {
		was := before[url]
		if url == unasked {
			was = stripStatsBlock(late.Body.Bytes())
		}
		if rec := get(t, reopened, ctx, url); rec.Code != 200 || bytes.Equal(stripStatsBlock(rec.Body.Bytes()), was) {
			t.Errorf("%s: reopening the archive did not pick up the added partition (status %d)", url, rec.Code)
		}
	}
}

// stripStatsBlock cuts a range reply's trailing stats (elapsed time).
func stripStatsBlock(b []byte) []byte {
	if i := bytes.LastIndex(b, []byte(`,"stats":{`)); i >= 0 {
		return b[:i]
	}
	return b
}

// TestWriteJSONEncodesBeforeCommitting: a value encoding/json refuses is a
// 500 with an error body, not a 200 cut short; a good one carries its length.
func TestWriteJSONEncodesBeforeCommitting(t *testing.T) {
	rec := httptest.NewRecorder()
	serve.WriteJSON(rec, http.StatusOK, map[string]any{"ok": true, "v": math.NaN()})
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != 500 || err != nil || body.Error == "" {
		t.Errorf("unencodable value: status %d, body %q (%v); want 500 and an error object", rec.Code, rec.Body.Bytes(), err)
	}
	rec = httptest.NewRecorder()
	v := map[string]any{"datasets": []string{"a<b>", "c"}}
	serve.WriteJSON(rec, http.StatusOK, v)
	want := stdJSON(t, v)
	if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) || rec.Header().Get("Content-Length") != fmt.Sprint(len(want)) {
		t.Errorf("status %d, Content-Length %q, body %q; want 200, %d, %q",
			rec.Code, rec.Header().Get("Content-Length"), rec.Body.Bytes(), len(want), want)
	}
}

// TestReflectionRepliesCarryLength: every reply that goes through writeJSON —
// inventories, fleet merges, errors, /debug/vars — goes out whole, with
// Content-Length, over a real connection.
func TestReflectionRepliesCarryLength(t *testing.T) {
	f := newMemoFixture(t)
	srv := httptest.NewServer(f.h)
	defer srv.Close()
	urls := []string{"/api/v1/datasets", "/api/v1/clusters", "/api/v1/fleet/series?name=sum_inp",
		"/api/v1/fleet/summary", "/debug/vars", "/api/v1/range?dataset=nope&column=x"}
	sort.Strings(urls)
	for _, url := range urls {
		resp, err := http.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, transfer encoding %v, body %d bytes",
				url, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}
