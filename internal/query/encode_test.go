package query

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/url"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/tsagg"
)

// --- test-only oracles: the reflection-encoded reply structs the append
// encoder replaced, marshalled by encoding/json ---

type apiWindow struct {
	T     int64  `json:"t"`
	Count int64  `json:"count"`
	Min   jfloat `json:"min"`
	Max   jfloat `json:"max"`
	Mean  jfloat `json:"mean"`
	Std   jfloat `json:"std,omitempty"`
	Sum   jfloat `json:"sum,omitempty"`
}

type apiStats struct {
	DaysTotal   int   `json:"days_total"`
	DaysScanned int   `json:"days_scanned"`
	DaysPruned  int   `json:"days_pruned"`
	RowsScanned int64 `json:"rows_scanned"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Preagg      bool  `json:"preagg,omitempty"`
	Cached      bool  `json:"cached,omitempty"`
	ElapsedUS   int64 `json:"elapsed_us"`
}

type apiRange struct {
	Dataset string      `json:"dataset"`
	Column  string      `json:"column"`
	Node    *int64      `json:"node,omitempty"`
	T0      int64       `json:"t0"`
	T1      int64       `json:"t1"`
	Step    int64       `json:"step"`
	Points  []apiPoint  `json:"points,omitempty"`
	Windows []apiWindow `json:"windows,omitempty"`
	Stats   apiStats    `json:"stats"`
}

type apiGroupSeries struct {
	Group   int         `json:"group"`
	Label   string      `json:"label"`
	Windows []apiWindow `json:"windows"`
}

type apiRollup struct {
	Dataset string           `json:"dataset"`
	Column  string           `json:"column"`
	Group   string           `json:"group"`
	T0      int64            `json:"t0"`
	T1      int64            `json:"t1"`
	Step    int64            `json:"step"`
	Series  []apiGroupSeries `json:"series"`
	Stats   apiStats         `json:"stats"`
}

func toAPIStats(s QueryStats) apiStats {
	return apiStats{
		DaysTotal: s.DaysTotal, DaysScanned: s.DaysScanned, DaysPruned: s.DaysPruned,
		RowsScanned: s.RowsScanned, CacheHits: s.CacheHits, CacheMisses: s.CacheMisses,
		Preagg: s.Preagg, Cached: s.Cached, ElapsedUS: s.Elapsed.Microseconds(),
	}
}

// legacyRange renders a range result the way the handler used to.
func legacyRange(res *RangeResult) *apiRange {
	out := &apiRange{Dataset: res.Dataset, Column: res.Column, T0: res.T0, T1: res.T1,
		Step: res.Step, Stats: toAPIStats(res.Stats)}
	if res.Node >= 0 {
		n := res.Node
		out.Node = &n
	}
	if res.Step > 0 {
		out.Windows = make([]apiWindow, len(res.Windows))
		for i, w := range res.Windows {
			out.Windows[i] = apiWindow{T: w.T, Count: w.Count, Min: jfloat(w.Min),
				Max: jfloat(w.Max), Mean: jfloat(w.Mean), Std: jfloat(w.Std)}
		}
	} else {
		out.Points = make([]apiPoint, len(res.Points))
		for i, p := range res.Points {
			out.Points[i] = apiPoint{T: p.T, V: jfloat(p.V)}
		}
	}
	return out
}

func legacyRollup(res *RollupResult) *apiRollup {
	out := &apiRollup{Dataset: res.Dataset, Column: res.Column, Group: string(res.Group),
		T0: res.T0, T1: res.T1, Step: res.Step,
		Series: make([]apiGroupSeries, len(res.Series)), Stats: toAPIStats(res.Stats)}
	for i, gs := range res.Series {
		ws := make([]apiWindow, len(gs.Windows))
		for j, w := range gs.Windows {
			ws[j] = apiWindow{T: w.T, Count: w.Count, Min: jfloat(w.Min),
				Max: jfloat(w.Max), Mean: jfloat(w.Mean), Sum: jfloat(w.Sum)}
		}
		out.Series[i] = apiGroupSeries{Group: gs.Group, Label: gs.Label, Windows: ws}
	}
	return out
}

// stdJSON is what writeJSON put on the wire: encoding/json, HTML escaping
// off, trailing newline.
func stdJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 100, 1e-7, 9.99e-7, 1e-6, 1.0000001e-6,
	1e20, 9.999999e20, 1e21, 1.5e21, 1e-9, 1.25e-9, 1e-10, 1e-300, 1e300,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1), 2212.3400000000001, 1.0 / 3, 123456789.123456789,
}

// checkFloat compares jfloat — the float of every reflection-encoded reply
// — with encoding/json for one value. The formatter under it has its own
// tests and fuzz target in internal/serve.
func checkFloat(t testing.TB, f float64) {
	t.Helper()
	want := []byte("null")
	if !math.IsNaN(f) && !math.IsInf(f, 0) {
		var err error
		if want, err = json.Marshal(f); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := json.Marshal(jfloat(f)); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("jfloat(%v) marshals %q (err %v), want %q", f, got, err, want)
	}
}

func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range awkwardFloats {
		checkFloat(t, f)
	}
}

func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range awkwardFloats {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) { checkFloat(t, math.Float64frombits(bits)) })
}

// appendReply encodes a range or rollup result whole, as a request that
// computed it is answered.
func appendReply(b []byte, r serve.Tailed) []byte {
	return append(r.Tail().AppendTail(r.AppendPayload(b), false, 0), '\n')
}

var elapsedRE = regexp.MustCompile(`"elapsed_us":(\d+)`)

// TestReplyEncoderMatchesEncodingJSON compares whole replies: the append
// encoder against encoding/json over the legacy reply structs, on
// hand-built results covering every omitempty and null rule and on real
// engine answers — encoded directly, and served through the kernel's cached
// guard as a miss and as a hit, whose stats block says so and nothing else
// differs.
func TestReplyEncoderMatchesEncodingJSON(t *testing.T) {
	qs := QueryStats{DaysTotal: 4, DaysScanned: 2, DaysPruned: 2, RowsScanned: 1234,
		CacheHits: 1, CacheMisses: 1, Elapsed: 1234567 * time.Nanosecond}
	var ws []tsagg.WindowStat
	var pts []Point
	var rws []RollupWindow
	for i, f := range awkwardFloats {
		g := awkwardFloats[(i+7)%len(awkwardFloats)]
		ws = append(ws, tsagg.WindowStat{T: int64(i) * 600, Count: int64(i), Min: f, Max: g, Mean: -f, Std: g})
		pts = append(pts, Point{T: int64(i) - 3, V: f})
		rws = append(rws, RollupWindow{T: int64(i) * 600, Count: int64(i), Min: f, Max: g, Mean: -f, Sum: g})
	}
	ranges := []*RangeResult{
		{Dataset: "node-power", Column: "input_power.mean", Node: -1, T0: -5, T1: math.MaxInt64, Step: 600, Windows: ws, Stats: qs},
		{Dataset: `we"ird\name`, Column: "c\n<&>\u2028", Node: 17, T0: 0, T1: 10, Points: pts, Stats: qs},
		{Dataset: "d", Column: "c", Node: 0, T0: 0, T1: 10, Step: 60, Windows: []tsagg.WindowStat{}},
		{Dataset: "d", Column: "c", Node: -1, T0: 0, T1: 10, Points: nil, Stats: QueryStats{Preagg: true}},
	}
	rollups := []*RollupResult{
		{Dataset: "node-power", Column: "input_power.mean", Group: GroupCabinet, T0: 0, T1: 86400, Step: 600,
			Series: []GroupSeries{{Group: 0, Label: "cab000", Windows: rws}, {Group: 3, Label: "MSB \"D\"", Windows: rws[:1]}},
			Stats:  QueryStats{Preagg: true, RowsScanned: 9, Elapsed: time.Millisecond}},
		{Dataset: "d", Column: "c", Group: GroupFleet, T0: 0, T1: 1, Step: 1, Series: nil, Stats: qs},
		{Dataset: "d", Column: "c", Group: GroupMSB, T0: 0, T1: 1, Step: 1,
			Series: []GroupSeries{{Group: 1, Label: "MSB B", Windows: nil}}},
	}
	// Real answers, every path.
	e := testEngine(t)
	ctx := context.Background()
	for _, req := range []RangeRequest{
		{Dataset: "cluster-power", Column: "sum_inp", Node: -1, T0: 0, T1: daySec, Step: 60},
		{Dataset: "cluster-power", Column: "sum_inp", Node: -1, T0: 3600, T1: 7200},
		{Dataset: "node-power", Column: "input_power.mean", Node: 7, T0: 0, T1: 3 * daySec, Step: 777},
	} {
		res, err := e.Range(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		ranges = append(ranges, res)
	}
	for _, g := range []GroupBy{GroupCabinet, GroupMSB, GroupFleet} {
		res, err := e.Rollup(ctx, RollupRequest{Dataset: "node-power", Column: "input_power.mean",
			Group: g, T0: 100, T1: 2 * daySec, Step: 1800})
		if err != nil {
			t.Fatal(err)
		}
		rollups = append(rollups, res)
	}
	type fixture struct {
		reply  serve.Tailed
		stats  *QueryStats
		oracle func() any
	}
	var fixtures []fixture
	for _, r := range ranges {
		fixtures = append(fixtures, fixture{r, &r.Stats, func() any { return legacyRange(r) }})
	}
	for _, r := range rollups {
		fixtures = append(fixtures, fixture{r, &r.Stats, func() any { return legacyRollup(r) }})
	}
	served := serve.NewKernel(time.Minute, 0, nil).GuardCached("fixture", serve.NewReplyCache(),
		func(q url.Values) (string, func(context.Context) (any, error), error) {
			i, err := strconv.Atoi(q.Get("i"))
			return q.Get("i"), func(context.Context) (any, error) { return fixtures[i].reply, nil }, err
		})
	for i, f := range fixtures {
		want := stdJSON(t, f.oracle())
		if got := appendReply(nil, f.reply); !bytes.Equal(got, want) {
			t.Errorf("fixture %d:\n got %s\nwant %s", i, got, want)
		}
		url := "/fixture?i=" + strconv.Itoa(i)
		if miss := get(t, served, ctx, url); !bytes.Equal(miss.Body.Bytes(), want) {
			t.Errorf("fixture %d served, miss:\n got %s\nwant %s", i, miss.Body.Bytes(), want)
		}
		hit := get(t, served, ctx, url).Body.Bytes()
		m := elapsedRE.FindSubmatch(hit)
		if m == nil {
			t.Fatalf("fixture %d served, hit: no elapsed_us in %s", i, hit)
		}
		us, _ := strconv.ParseInt(string(m[1]), 10, 64)
		computed := *f.stats
		*f.stats = QueryStats{DaysTotal: computed.DaysTotal, Preagg: computed.Preagg, Cached: true,
			Elapsed: time.Duration(us) * time.Microsecond}
		if want := stdJSON(t, f.oracle()); !bytes.Equal(hit, want) {
			t.Errorf("fixture %d served, hit:\n got %s\nwant %s", i, hit, want)
		}
		*f.stats = computed
	}
}

// TestClusterRangeReplyEncodesWithoutAllocating is the encode half of the
// allocation guard: the dashboard's cluster_range reply (1440 windows, 5760
// floats) used to cost one reflective json.Marshal per float.
func TestClusterRangeReplyEncodesWithoutAllocating(t *testing.T) {
	e := testEngine(t)
	res, err := e.Range(context.Background(), RangeRequest{
		Dataset: "cluster-power", Column: "sum_inp", Node: -1, T0: 0, T1: 2 * daySec, Step: 120})
	if err != nil || len(res.Windows) != 1440 {
		t.Fatalf("%d windows, err %v", len(res.Windows), err)
	}
	buf := appendReply(nil, res)
	if allocs := testing.AllocsPerRun(20, func() { buf = appendReply(buf[:0], res) }); allocs > 4 {
		t.Errorf("warm cluster_range reply encodes in %.0f allocations, want <= 4", allocs)
	}
}

// --- per-request plumbing ---

var serverTimingRE = regexp.MustCompile(`^cache;desc=miss, engine;dur=\d+\.\d{3}, encode;dur=\d+\.\d{3}$`)

func TestHTTPEncodedRepliesCarryLengthAndStageTimes(t *testing.T) {
	srv, _ := testServer(t, ServerConfig{})
	for _, path := range []string{
		"/api/v1/range?dataset=cluster-power&column=sum_inp&t0=0&t1=86400&step=600",
		"/api/v1/rollup?dataset=node-power&column=input_power.mean&group=msb&t0=0&t1=86400&step=1800",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v", path, resp.StatusCode, err)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q, body is %d bytes", path, cl, len(body))
		}
		if st := resp.Header.Get("Server-Timing"); !serverTimingRE.MatchString(st) {
			t.Errorf("%s: Server-Timing = %q", path, st)
		}
		if !json.Valid(body) || body[len(body)-1] != '\n' {
			t.Errorf("%s: body is not one JSON line: %.80s", path, body)
		}
	}
	var vars map[string]any
	if code := getJSON(t, srv.URL+"/debug/vars", &vars); code != http.StatusOK {
		t.Fatalf("vars status %d", code)
	}
	if enc, ok := vars["encode_ns"].(map[string]any); !ok || enc["count"].(float64) != 2 {
		t.Errorf("/debug/vars encode_ns = %v", vars["encode_ns"])
	}
}

// TestHTTPBudgetRefusesBeforeMaterializing is the handler half of the
// budget fix: an over-budget raw fleet range is a 413 that scanned (almost)
// nothing, and an under-budget query is unchanged.
func TestHTTPBudgetRefusesBeforeMaterializing(t *testing.T) {
	srv, e := testServer(t, ServerConfig{MaxPoints: 500})
	base := srv.URL + "/api/v1/range?dataset=node-power&column=input_power.mean&t0=0"
	raw := base + "&t1=259200"
	var errBody map[string]string
	for touch := 0; touch < 3; touch++ { // stream, materialize, resident
		before := e.Metrics().RowsScanned.Load()
		if code := getJSON(t, raw, &errBody); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("touch %d: status %d, want 413 (%v)", touch, code, errBody)
		}
		// Streaming blocks are 4096 rows; a resident day is sized whole.
		if got := e.Metrics().RowsScanned.Load() - before; got > 4096 {
			t.Errorf("touch %d: 413 after scanning %d rows, want at most one block", touch, got)
		}
	}
	var under struct {
		Points []struct{ T int64 } `json:"points"`
	}
	if code := getJSON(t, base+"&node=2&t1=43200", &under); code != http.StatusOK || len(under.Points) != 360 {
		t.Fatalf("under-budget query: status %d, %d points", code, len(under.Points))
	}
	if code := getJSON(t, srv.URL+"/api/v1/rollup?dataset=node-power&column=input_power.mean&group=cabinet&t0=0&t1=259200&step=600", &errBody); code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-budget rollup: status %d", code)
	}
}
