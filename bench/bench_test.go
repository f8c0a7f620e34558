package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := stats.Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := stats.Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if !math.IsNaN(stats.Median(nil)) || !math.IsNaN(percentile(nil, 95)) {
		t.Error("no samples must give NaN")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); !relClose(got, c.want, 0) {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	// Nearest rank on a short sample: p95 of five values is the largest.
	if got := percentile([]float64{10, 20, 30, 40, 50}, 95); got != 50 {
		t.Errorf("p95 of five = %v, want 50", got)
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		none bool
	}{
		{n: 80, none: true}, // p90 would leave 8 beyond
		{n: 99, none: true}, // 9.9 beyond p90
		{n: 100, p: 90},     // exactly 10 beyond p90
		{n: 199, p: 90},     // p95 would leave 9.95
		{n: 200, p: 95},
		{n: 999, p: 95},
		{n: 1000, p: 99},
		{n: 4000, p: 99}, // p99.9 would leave 4
		{n: 10000, p: 99.9},
	}
	for _, c := range cases {
		p, ok := supportedTail(c.n)
		if ok == c.none || (ok && !relClose(p, c.p, 0)) {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, !c.none)
		}
	}
	// A reported tail above what the sample supports is marked thin.
	r := newRunResult(wScan, 1, false, 5)
	r.setTail("loadgen.scan_p95_ms", make([]float64, 100), 95)
	r.setTail("loadgen.lag_p90_ms", make([]float64, 100), 90)
	if !r.Metrics["loadgen.scan_p95_ms"].Thin || r.Metrics["loadgen.lag_p90_ms"].Thin {
		t.Errorf("p95 of 100 samples must be thin and p90 not: %+v", r.Metrics)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; want 1.5, 12", q1, q3)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]: two samples
	// extrapolate, as Python does.
	q1, q3 = quartiles([]float64{3, 5})
	if q1 != 2.5 || q3 != 5.5 {
		t.Errorf("quartiles(3,5) = %v, %v; want 2.5, 5.5", q1, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

func TestOpListsDependOnlyOnSeed(t *testing.T) {
	for _, gen := range []func(uint64, sizes) []queryOp{scanOps, dashOps} {
		a, b, c := gen(7, fullSizes), gen(7, fullSizes), gen(8, fullSizes)
		if !reflect.DeepEqual(a, b) {
			t.Error("equal seeds gave different operation lists")
		}
		if reflect.DeepEqual(a, c) {
			t.Error("different seeds gave the same operation list")
		}
	}
	scan := scanOps(7, fullSizes)
	if len(scan) != fullSizes.ScanOpsPerRep {
		t.Fatalf("scan list has %d ops, want %d", len(scan), fullSizes.ScanOpsPerRep)
	}
	perClass := map[string]int{}
	for _, op := range scan {
		perClass[op.Class]++
	}
	for _, class := range scanClasses {
		if perClass[class] != fullSizes.ScanOpsPerRep/len(scanClasses) {
			t.Errorf("scan class %s drawn %d times, want an even share", class, perClass[class])
		}
	}
	dash := dashOps(7, fullSizes)
	cached := 0
	for _, op := range dash {
		if op.Class == clsRangeCached {
			cached++
		}
	}
	if len(dash) != fullSizes.DashOpsPerRep || cached != fullSizes.DashOpsPerRep/10 {
		t.Errorf("dash list: %d ops with %d cached scans, want %d with %d",
			len(dash), cached, fullSizes.DashOpsPerRep, fullSizes.DashOpsPerRep/10)
	}
	// The live feed is a closed form of its seed too.
	f7, f8 := newLiveFeed(7, 64), newLiveFeed(8, 64)
	if !relClose(f7.power(3, 5), newLiveFeed(7, 64).power(3, 5), 0) || relClose(f7.power(3, 5), f8.power(3, 5), 0) {
		t.Error("live feed values must depend on the seed and nothing else")
	}
}

func TestCloseTickAndClosableWindows(t *testing.T) {
	// Window j = [10j, 10j+10) closes when event-second 10j+15 arrives.
	if closeTick(0) != 15 || closeTick(3) != 45 {
		t.Errorf("closeTick(0), closeTick(3) = %d, %d; want 15, 45", closeTick(0), closeTick(3))
	}
	for _, c := range []struct{ sec, want int }{{15, 0}, {16, 1}, {25, 1}, {26, 2}, {280, 27}} {
		if got := closableWindows(c.sec); got != c.want {
			t.Errorf("closableWindows(%d) = %d, want %d", c.sec, got, c.want)
		}
	}
}

func TestSelfTimesOnHandBuiltTree(t *testing.T) {
	// op 0: root [0,100] with children a [10,40] and b [30,70] (overlapping
	// by 10) and a grandchild under a [15,25]; op 4: a lone root [200,260].
	spans := []span{
		{ID: 0, Parent: -1, Op: 0, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Op: 0, Name: "b", Start: 30, End: 70},
		{ID: 3, Parent: 1, Op: 0, Name: "leaf", Start: 15, End: 25},
		{ID: 4, Parent: -1, Op: 4, Name: "root", Start: 200, End: 260},
	}
	want := []int64{40, 20, 40, 10, 60} // root: 100 - union[10,70]
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	by := selfByName(spans)
	if by["root"] != 100 || by["a"] != 20 || by["leaf"] != 10 {
		t.Errorf("selfByName = %v", by)
	}
	// The overlap of a and b is counted once in the root but both children
	// keep it, so op 0's self times exceed its wall time by 10 %.
	if got := opSelfError(spans); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("opSelfError = %v, want 0.10", got)
	}
	if got := opSelfError([]span{{ID: 0, Parent: -1, Op: 0, Name: "root", Start: 5, End: 9}}); got != 0 {
		t.Errorf("opSelfError of a lone span = %v, want 0", got)
	}
}

func TestTracerNestsAndNilTracerIsInert(t *testing.T) {
	tr := newTracer()
	tr.in("op", func() {
		tr.in("child", func() {})
		tr.in("child", func() {})
	})
	tr.in("op2", func() {})
	if len(tr.spans) != 4 || tr.spans[1].Parent != 0 || tr.spans[2].Op != 0 || tr.spans[3].Parent != -1 || tr.spans[3].Op != 3 {
		t.Errorf("unexpected span tree: %+v", tr.spans)
	}
	if gap := opSelfError(tr.spans); gap > 1e-9 {
		t.Errorf("sequential spans must sum to the op's wall time, gap %v", gap)
	}
	var none *tracer
	ran := false
	none.in("x", func() { ran = true })
	if !ran || none.begin("y") != -1 {
		t.Error("a nil tracer must run the function and record nothing")
	}
}

func TestJudgeVerdicts(t *testing.T) {
	steady := func(center float64) []float64 { // spread ~1 %
		return []float64{center * 0.99, center * 0.995, center, center, center * 1.005, center * 1.01}
	}
	noisy := func(center float64) []float64 { // spread well over 10 %
		return []float64{center * 0.7, center * 0.85, center, center, center * 1.15, center * 1.3}
	}
	cases := []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", steady(100), steady(100), false, verdictWithin},
		{"latency up 5% is within 10%", steady(100), steady(105), false, verdictWithin},
		{"latency up 20%", steady(100), steady(120), false, verdictWorse},
		{"latency down 20%", steady(100), steady(80), false, verdictBetter},
		{"throughput down 20%", steady(100), steady(80), true, verdictWorse},
		{"throughput up 20%", steady(100), steady(120), true, verdictBetter},
		{"noisy and interleaved", noisy(100), noisy(105), false, verdictUnresolved},
		{"noisy but every run worse", noisy(100), noisy(300), false, verdictWorse},
		{"noisy but every run better", noisy(100), noisy(30), false, verdictBetter},
		{"noisy throughput, every run better", noisy(100), noisy(300), true, verdictBetter},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// resultWith builds a result file whose runs of one workload report the
// given values of one metric.
func resultWith(workload, metric string, failed int64, values ...float64) *resultFile {
	rf := &resultFile{Sizes: fullSizes}
	for i, v := range values {
		r := newRunResult(workload, uint64(i), false, 5)
		r.Attempted, r.Failed = 100, failed
		r.set(metric, v, 5)
		rf.Runs = append(rf.Runs, r)
	}
	return rf
}

func TestCompareExitsNonZeroOnWorseOrMoreFailures(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rf *resultFile) string {
		path := filepath.Join(dir, name)
		raw, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", resultWith(wDash, "query_p50_ms", 0, 2.0, 2.01, 1.99, 2.0))
	same := write("b.json", resultWith(wDash, "query_p50_ms", 0, 2.02, 2.0, 2.01, 1.98))
	slow := write("c.json", resultWith(wDash, "query_p50_ms", 0, 2.6, 2.61, 2.59, 2.6))
	flaky := write("d.json", resultWith(wDash, "query_p50_ms", 3, 2.0, 2.01, 1.99, 2.0))
	other := write("e.json", resultWith(wTwin, "twin_node_hours_per_s", 0, 500))

	var out bytes.Buffer
	if ok, err := runCompare(&out, base, same); err != nil || !ok {
		t.Errorf("same commit: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "query_p50_ms") || !strings.Contains(out.String(), verdictWithin) {
		t.Errorf("comparison lacks the metric row:\n%s", out.String())
	}
	out.Reset()
	if ok, err := runCompare(&out, base, slow); err != nil || ok {
		t.Errorf("30%% slower: ok=%v err=%v, want a regression\n%s", ok, err, out.String())
	}
	if ok, err := runCompare(&out, base, flaky); err != nil || ok {
		t.Errorf("a larger failure share must fail the comparison: ok=%v err=%v", ok, err)
	}
	if _, err := runCompare(&out, base, other); err == nil {
		t.Error("files sharing no metric must be an error")
	}
	if code := realMain(context.Background(), options{compare: true, args: []string{base, slow}}, &out, &out); code != 1 {
		t.Errorf("-compare on a regression exited %d, want 1", code)
	}
	if code := realMain(context.Background(), options{compare: true, args: []string{base}}, &out, &out); code != 2 {
		t.Errorf("-compare with one file exited %d, want 2", code)
	}
}

func TestAppendResultsAccumulatesRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.json")
	env := environment{Commit: "abc", GoVersion: "go", NProc: 2}
	for i := 0; i < 2; i++ {
		if err := appendResults(path, env, fullSizes, resultWith(wLive, "live_lag_p50_ms", 0, 5).Runs); err != nil {
			t.Fatal(err)
		}
	}
	rf, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Runs) != 2 || rf.Env.Commit != "abc" || rf.Sizes != fullSizes {
		t.Errorf("result file after two appends: %d runs, env %+v", len(rf.Runs), rf.Env)
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// A command name with spaces and parentheses; utime=150 stime=50 ticks.
	line := "4242 (my (odd) cmd) S 1 4242 4242 0 -1 4194560 2000 0 0 0 150 50 0 0 20 0 9 0 100 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseProcStatCPU(line)
	if err != nil || got.Seconds() != 2 {
		t.Errorf("parseProcStatCPU = %v, %v; want 2s", got, err)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("a malformed stat line must be an error")
	}
}

func TestStripStatsAndElapsed(t *testing.T) {
	a := []byte(`{"dataset":"x","windows":[{"t":1}],"stats":{"days_total":4,"elapsed_us":1234}}` + "\n")
	b := []byte(`{"dataset":"x","windows":[{"t":1}],"stats":{"days_total":4,"elapsed_us":99}}` + "\n")
	if bodyKey(a) != bodyKey(b) {
		t.Error("payloads differing only in stats must have one identity")
	}
	c := []byte(`{"dataset":"x","windows":[{"t":2}],"stats":{"days_total":4,"elapsed_us":1234}}` + "\n")
	if bodyKey(a) == bodyKey(c) {
		t.Error("payloads differing in data must differ in identity")
	}
	if e, ok := elapsedOf(a); !ok || e.Microseconds() != 1234 {
		t.Errorf("elapsedOf = %v, %v; want 1234us", e, ok)
	}
	if _, ok := elapsedOf([]byte(`{"datasets":[]}`)); ok {
		t.Error("a reply without stats has no engine time")
	}
}

func TestRepsScaleWithSeconds(t *testing.T) {
	for _, c := range []struct{ seconds, want int }{{nominalSeconds, 5}, {2 * nominalSeconds, 10}, {1, 2}, {nominalSeconds * 3 / 5, 3}} {
		if got := repsFor(c.seconds, 5); got != c.want {
			t.Errorf("repsFor(%d) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", bj.Command, bj.Paths)
	}
	if bj.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, want %d", bj.RunSeconds, nominalSeconds)
	}
	if len(bj.Workloads) != len(driverWorkloads) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(driverWorkloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != driverWorkloads[i] || w.Why != workloadWhy[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %d: %q does not match the tables", i, w.Name)
		}
	}
	check := func(section string, got []benchmarkMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", section, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range got {
			d := want[i]
			better := "lower"
			if d.Higher {
				better = "higher"
			}
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != better {
				t.Errorf("%s[%d]: %+v does not match %+v", section, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && (!relClose(*m.Bound, d.Bound, 0) || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s[%d] %s: bound %v, want %v (bounded=%v)", section, i, m.Name, m.Bound, d.Bound, bounded)
			}
			if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
				t.Errorf("%s[%d] %s: duplicate or over-long name or unit", section, i, m.Name)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer(), false)
	if len(bj.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(bj.PerLayer))
	}
}

func TestContractLineListsExactlyTheDeclaredMetrics(t *testing.T) {
	r := newRunResult(wTwin, 1, false, 5)
	r.Attempted = 5
	for _, d := range endToEnd {
		r.set(d.Name, 1.5, 5)
	}
	r.set("twin_node_hours_per_s", 1.5, 5) // measured, but not part of an untraced line
	line, err := contractLine(r)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]measure `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted != 5 || len(out.Metrics) != len(endToEnd) || out.Metrics["setup_s"].Unit != "s" {
		t.Errorf("untraced line: %s", line)
	}
	r.Traced = true
	r.fail("one wrong answer")
	line, err = contractLine(r)
	if err != nil {
		t.Fatal(err)
	}
	out.Metrics = nil
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed != 1 || len(out.Metrics) != len(perLayer()) {
		t.Errorf("traced line has %d metrics (want %d), correct=%v", len(out.Metrics), len(perLayer()), out.Correct)
	}
	if m := out.Metrics["stream.frames"]; m.Value != 0 || m.Unit != "count" {
		t.Errorf("a layer the workload never enters must read 0 with its unit, got %+v", m)
	}
	delete(r.Metrics, "setup_s")
	r.Traced = false
	if _, err := contractLine(r); err == nil {
		t.Error("an untraced run missing an end-to-end metric must be an error")
	}
}

// TestSmoke runs all five workloads at about a twentieth of their size
// through the real subprocess plumbing, traced, and asserts that every
// declared metric that applies to a workload is present and finite and that
// no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke run builds and drives the real binaries")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil { // the harness builds ./cmd/... from the module root
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(old); err != nil {
			t.Error(err)
		}
	}()
	tmp := t.TempDir()
	var stdout, stderr bytes.Buffer
	o := options{workload: "all", seed: 5, seconds: nominalSeconds, count: 1, smoke: true,
		trace: filepath.Join(tmp, "spans.json"), out: filepath.Join(tmp, "smoke.json")}
	results, err := runBenchmark(context.Background(), o, &stdout, &stderr)
	if err != nil {
		t.Fatalf("smoke run: %v\n%s", err, stderr.String())
	}
	if len(results) != len(workloadOrder) {
		t.Fatalf("%d workloads ran, want %d", len(results), len(workloadOrder))
	}
	measured := map[string]bool{}
	for _, r := range results {
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", r.Workload, r.Attempted, r.Failed, r.Errors)
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), userMetrics...) {
			if !d.appliesTo(r.Workload) {
				continue
			}
			m, ok := r.Metrics[d.Name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
				t.Errorf("%s: metric %s = %+v, want present, finite and positive", r.Workload, d.Name, m)
			}
		}
		for name, m := range r.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s is %v", r.Workload, name, m.Value)
			}
			measured[name] = true
		}
		if _, err := contractLine(r); err != nil {
			t.Errorf("%s: %v", r.Workload, err)
		}
	}
	for _, d := range layerMetrics {
		if !measured[d.Name] {
			t.Errorf("layer metric %s was measured by no workload", d.Name)
		}
	}
	// The span file holds one document per workload.
	raw, err := os.ReadFile(o.trace)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(raw, []byte("\n")); lines != len(workloadOrder) {
		t.Errorf("span file has %d documents, want %d", lines, len(workloadOrder))
	}
	if rf, err := readResultFile(o.out); err != nil || len(rf.Runs) != len(workloadOrder) {
		t.Errorf("result file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, buildDir)); err != nil {
		t.Errorf("the build directory must exist after a run: %v", err)
	}
}
