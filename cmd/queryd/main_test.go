package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/store"
)

const (
	e2eNodes = 36 // two full cabinets at 18 nodes/cabinet
	e2eDays  = 3
	e2eStep  = int64(300)
	e2eDay   = int64(86400)
)

func e2ePower(node, t int64) float64 {
	return 2000 + 25*float64(node) + float64(t%7200)*0.005
}

// writeE2EArchive builds a multi-day archive through the store layer, as
// summitsim lays one out: node-power and cluster-power days, committed by
// the run-meta written last.
func writeE2EArchive(t *testing.T, dir string) {
	t.Helper()
	ds, err := store.NewDataset(dir, "node-power")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := store.NewDataset(dir, source.DatasetClusterPower)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < e2eDays; day++ {
		var ts, node, cts []int64
		var val, sum []float64
		for tm := int64(day) * e2eDay; tm < int64(day+1)*e2eDay; tm += e2eStep {
			total := 0.0
			for n := int64(0); n < e2eNodes; n++ {
				ts = append(ts, tm)
				node = append(node, n)
				val = append(val, e2ePower(n, tm))
				total += e2ePower(n, tm)
			}
			cts, sum = append(cts, tm), append(sum, total)
		}
		err := ds.WriteDay(day, &store.Table{Cols: []store.Column{
			{Name: "timestamp", Ints: ts},
			{Name: "node", Ints: node},
			{Name: "input_power.mean", Floats: val},
		}})
		if err != nil {
			t.Fatal(err)
		}
		err = cluster.WriteDay(day, &store.Table{Cols: []store.Column{
			{Name: "timestamp", Ints: cts},
			{Name: source.SeriesClusterPower, Floats: sum},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	manifest, err := store.NewDataset(dir, source.DatasetRunMeta)
	if err != nil {
		t.Fatal(err)
	}
	meta := source.Meta{StepSec: e2eStep, Nodes: e2eNodes, Windows: int(e2eDays * e2eDay / e2eStep)}
	if err := manifest.WriteDay(0, source.ManifestTable(meta)); err != nil {
		t.Fatal(err)
	}
}

// startQueryd runs the real flag-parsing and server-construction path on a
// loopback port and serves in the background.
func startQueryd(t *testing.T, args ...string) string {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	srv, ln, err := newServer(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String()
}

func getInto(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == 200 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestQuerydEndToEnd(t *testing.T) {
	dir := t.TempDir()
	writeE2EArchive(t, dir)
	base := startQueryd(t,
		"-data", dir, "-addr", "127.0.0.1:0",
		"-nodes", fmt.Sprint(e2eNodes), "-q")

	// Liveness.
	if code := getInto(t, base+"/healthz", nil); code != 200 {
		t.Fatalf("healthz = %d", code)
	}

	// Inventory matches the archive we wrote.
	var inv struct {
		Datasets []struct {
			Name string `json:"name"`
			Days int    `json:"days"`
			Rows int64  `json:"rows"`
		} `json:"datasets"`
	}
	if code := getInto(t, base+"/api/v1/datasets", &inv); code != 200 {
		t.Fatalf("datasets = %d", code)
	}
	wantRows := int64(e2eDays) * (e2eDay / e2eStep) * e2eNodes
	if len(inv.Datasets) != 3 || inv.Datasets[1].Name != "node-power" || inv.Datasets[1].Days != e2eDays || inv.Datasets[1].Rows != wantRows {
		t.Fatalf("inventory = %+v", inv.Datasets)
	}

	// Range query for one node across the day 1/2 boundary; verify every
	// point against a direct store scan.
	const node = 19
	t0, t1 := 2*e2eDay-3600, 2*e2eDay+3600
	rangeURL := fmt.Sprintf(
		"%s/api/v1/range?dataset=node-power&column=input_power.mean&node=%d&t0=%d&t1=%d",
		base, node, t0, t1)
	var rr struct {
		Points []struct {
			T int64   `json:"t"`
			V float64 `json:"v"`
		} `json:"points"`
		Stats struct {
			DaysScanned int   `json:"days_scanned"`
			DaysPruned  int   `json:"days_pruned"`
			CacheHits   int64 `json:"cache_hits"`
			CacheMisses int64 `json:"cache_misses"`
			Cached      bool  `json:"cached"`
		} `json:"stats"`
	}
	if code := getInto(t, rangeURL, &rr); code != 200 {
		t.Fatalf("range = %d", code)
	}
	ds, err := store.NewDataset(dir, "node-power")
	if err != nil {
		t.Fatal(err)
	}
	type pt struct {
		T int64
		V float64
	}
	var want []pt
	for day := 0; day < e2eDays; day++ {
		tab, err := ds.ReadDay(day)
		if err != nil {
			t.Fatal(err)
		}
		ts := tab.Col("timestamp").Ints
		nd := tab.Col("node").Ints
		vs := tab.Col("input_power.mean").Floats
		for i := range ts {
			if nd[i] == node && ts[i] >= t0 && ts[i] < t1 {
				want = append(want, pt{ts[i], vs[i]})
			}
		}
	}
	if len(rr.Points) != len(want) {
		t.Fatalf("range returned %d points, direct scan %d", len(rr.Points), len(want))
	}
	for i, p := range rr.Points {
		if p.T != want[i].T || p.V != want[i].V {
			t.Fatalf("point %d = %+v, direct scan %+v", i, p, want[i])
		}
	}
	if rr.Stats.DaysScanned != 2 || rr.Stats.DaysPruned != 1 {
		t.Errorf("pruning stats = %+v", rr.Stats)
	}
	if rr.Stats.CacheMisses != 2 || rr.Stats.CacheHits != 0 {
		t.Errorf("cold stats = %+v", rr.Stats)
	}

	// Downsampled query: windows carry per-window count/min/max/mean.
	dsURL := fmt.Sprintf(
		"%s/api/v1/range?dataset=node-power&column=input_power.mean&node=%d&t0=%d&t1=%d&step=1800",
		base, node, t0, t1)
	var dr struct {
		Windows []struct {
			T     int64   `json:"t"`
			Count int64   `json:"count"`
			Min   float64 `json:"min"`
			Max   float64 `json:"max"`
			Mean  float64 `json:"mean"`
		} `json:"windows"`
	}
	if code := getInto(t, dsURL, &dr); code != 200 {
		t.Fatalf("downsampled range = %d", code)
	}
	if len(dr.Windows) != 4 {
		t.Fatalf("%d windows, want 4", len(dr.Windows))
	}
	for _, w := range dr.Windows {
		if w.Count != 1800/e2eStep {
			t.Fatalf("window %+v: count != %d", w, 1800/e2eStep)
		}
		if w.Min > w.Mean || w.Mean > w.Max {
			t.Fatalf("window %+v not ordered", w)
		}
	}

	// Rollup query: two cabinets; fleet-wide sums must match a direct scan.
	ruURL := fmt.Sprintf(
		"%s/api/v1/rollup?dataset=node-power&column=input_power.mean&group=cabinet&t0=%d&t1=%d&step=3600",
		base, 0, 7200)
	var ru struct {
		Series []struct {
			Label   string `json:"label"`
			Windows []struct {
				T     int64   `json:"t"`
				Count int64   `json:"count"`
				Sum   float64 `json:"sum"`
			} `json:"windows"`
		} `json:"series"`
	}
	if code := getInto(t, ruURL, &ru); code != 200 {
		t.Fatalf("rollup = %d", code)
	}
	if len(ru.Series) != 2 || ru.Series[0].Label != "cab000" || ru.Series[1].Label != "cab001" {
		t.Fatalf("rollup series = %+v", ru.Series)
	}
	var gotSum float64
	var gotCount int64
	for _, s := range ru.Series {
		for _, w := range s.Windows {
			gotSum += w.Sum
			gotCount += w.Count
		}
	}
	var wantSum float64
	var wantCount int64
	for tm := int64(0); tm < 7200; tm += e2eStep {
		for n := int64(0); n < e2eNodes; n++ {
			wantSum += e2ePower(n, tm)
			wantCount++
		}
	}
	if gotCount != wantCount || gotSum < wantSum*(1-1e-9) || gotSum > wantSum*(1+1e-9) {
		t.Errorf("rollup total = %v/%d samples, direct scan %v/%d",
			gotSum, gotCount, wantSum, wantCount)
	}

	// A range one second shorter scans the same two days, now resident in
	// the table cache; the identical range query is answered from the reply
	// cache without a scan. The global counters must say both.
	if code := getInto(t, strings.Replace(rangeURL, fmt.Sprintf("t1=%d", t1), fmt.Sprintf("t1=%d", t1-1), 1), &rr); code != 200 {
		t.Fatalf("neighbouring range = %d", code)
	}
	if rr.Stats.CacheHits != 2 || rr.Stats.CacheMisses != 0 || rr.Stats.Cached {
		t.Errorf("warm stats = %+v", rr.Stats)
	}
	if code := getInto(t, rangeURL, &rr); code != 200 {
		t.Fatalf("repeat range = %d", code)
	}
	if !rr.Stats.Cached || rr.Stats.DaysScanned != 0 || len(rr.Points) != len(want) {
		t.Errorf("repeated range: stats %+v, %d points", rr.Stats, len(rr.Points))
	}
	var vars struct {
		Queries map[string]int64 `json:"queries"`
		Cache   map[string]int64 `json:"cache"`
		Replies map[string]int64 `json:"reply_cache"`
	}
	if code := getInto(t, base+"/debug/vars", &vars); code != 200 {
		t.Fatalf("vars = %d", code)
	}
	if vars.Cache["hits"] < 2 {
		t.Errorf("global cache hits = %d", vars.Cache["hits"])
	}
	if vars.Queries["range"] != 3 || vars.Queries["rollup"] != 1 {
		t.Errorf("query counters = %+v", vars.Queries)
	}
	if vars.Replies["hits"] != 1 || vars.Replies["computes"] < 4 {
		t.Errorf("reply cache counters = %+v", vars.Replies)
	}

	// Error surface.
	if code := getInto(t, base+"/api/v1/range?dataset=nope&column=x", nil); code != 404 {
		t.Errorf("unknown dataset = %d", code)
	}
}

// TestOneOpenPerArchive: a cluster is opened once. Serving the inventory, a
// fleet-wide range and an analysis of a summitsim -nodes 16 -days 1
// -nodedata archive reads each partition's header exactly once — cluster-power
// included, which the engine and the analyses share.
func TestOneOpenPerArchive(t *testing.T) {
	dir := t.TempDir()
	cfg := repro.ScaledConfig(16, 24*time.Hour)
	nodes, err := core.NewNodeDatasetWriter(dir, cfg.Nodes, cfg.Site)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := core.CollectRun(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WriteDatasets(dir, data); err != nil {
		t.Fatal(err)
	}
	names, err := store.Datasets(dir)
	if err != nil {
		t.Fatal(err)
	}
	partitions := 0
	for _, name := range names {
		days, err := (&store.Dataset{Dir: dir, Name: name}).Days()
		if err != nil {
			t.Fatal(err)
		}
		partitions += len(days)
	}
	if partitions != 8 {
		t.Fatalf("archive holds %d partitions (%v), want 8", partitions, names)
	}

	before := store.Stats().PartitionsIndexed
	o, err := parseFlags([]string{"-data", dir, "-q"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := openCluster(o, "", dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	h, err := query.NewFleetHandler([]query.Cluster{c}, query.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, url := range []string{
		"/api/v1/datasets",
		"/api/v1/range?dataset=node-power&column=input_power.mean&step=600",
		"/api/v1/analysis/bands",
	} {
		if code := getInto(t, srv.URL+url, nil); code != 200 {
			t.Fatalf("%s: status %d", url, code)
		}
	}
	if got := store.Stats().PartitionsIndexed - before; got != int64(partitions) {
		t.Errorf("serving read %d partition headers for %d partitions", got, partitions)
	}
}

// writeFleetRoot simulates two small clusters into subdirectories of root and
// writes the fleet manifest, exactly as summitsim -clusters does.
func writeFleetRoot(t *testing.T, root string) source.FleetManifest {
	t.Helper()
	var manifest source.FleetManifest
	clusters := []struct {
		name, site string
		nodes      int
	}{
		{"summit-0", "summit", 18},
		{"frontier-0", "frontier", 12},
	}
	for i, c := range clusters {
		cfg := sim.Config{
			Seed:             sim.DeriveSeed(7, i),
			Nodes:            c.nodes,
			Cluster:          c.name,
			Site:             c.site,
			StartTime:        1_577_836_800,
			DurationSec:      86400 + 7200, // one full day + 2 h -> two partitions
			StepSec:          300,
			SamplesPerWindow: 1,
			Jobs:             8,
		}
		s, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(root, c.name)
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
		manifest.Clusters = append(manifest.Clusters, source.FleetEntry{
			Name: c.name, Site: c.site, Nodes: c.nodes, Dir: c.name,
		})
	}
	if err := source.WriteFleetManifest(root, manifest); err != nil {
		t.Fatal(err)
	}
	return manifest
}

// TestQuerydFleet serves a two-cluster fleet root: per-cluster routing via
// ?cluster=, the fleet inventory (a stored reply like every other route)
// and the merge endpoints.
func TestQuerydFleet(t *testing.T) {
	root := t.TempDir()
	writeFleetRoot(t, root)
	base := startQueryd(t, "-data", root, "-addr", "127.0.0.1:0", "-q")

	// Inventory: both members, with their run dimensions.
	var inv struct {
		Clusters []struct {
			Name    string `json:"name"`
			Site    string `json:"site"`
			Nodes   int    `json:"nodes"`
			Windows int    `json:"windows"`
		} `json:"clusters"`
	}
	if code := getInto(t, base+"/api/v1/clusters", &inv); code != 200 {
		t.Fatalf("clusters = %d", code)
	}
	if len(inv.Clusters) != 2 || inv.Clusters[0].Name != "summit-0" || inv.Clusters[1].Name != "frontier-0" {
		t.Fatalf("inventory = %+v", inv.Clusters)
	}
	for _, c := range inv.Clusters {
		if c.Nodes == 0 || c.Windows == 0 {
			t.Fatalf("cluster %s: no run dimensions: %+v", c.Name, c)
		}
	}
	if inv.Clusters[0].Site != "summit" || inv.Clusters[1].Site != "frontier" {
		t.Errorf("sites = %s, %s", inv.Clusters[0].Site, inv.Clusters[1].Site)
	}
	// The inventory is a pure function of the archives as opened: the
	// second GET is answered from the reply cache, with the ETag of the
	// first, and If-None-Match with that tag is a 304.
	second := fetch(t, base+"/api/v1/clusters")
	etag := second.Header.Get("ETag")
	if second.StatusCode != 200 || etag == "" || !strings.HasPrefix(second.Header.Get("Server-Timing"), "cache;desc=hit") {
		t.Errorf("second inventory GET = %d, ETag %q, Server-Timing %q; want a stored reply",
			second.StatusCode, etag, second.Header.Get("Server-Timing"))
	}
	var memo struct {
		ReplyCache map[string]int64 `json:"reply_cache"`
	}
	if code := getInto(t, base+"/debug/vars", &memo); code != 200 || memo.ReplyCache["hits"] != 1 || memo.ReplyCache["computes"] != 1 {
		t.Errorf("reply_cache after two inventory GETs = %v (vars %d), want 1 compute, 1 hit", memo.ReplyCache, code)
	}
	if cond := fetch(t, base+"/api/v1/clusters", "If-None-Match", etag); cond.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match %s = %d, want 304", etag, cond.StatusCode)
	}

	// Per-cluster routing: a multi-cluster server demands ?cluster=.
	if code := getInto(t, base+"/api/v1/datasets", nil); code != 400 {
		t.Errorf("datasets without cluster = %d, want 400", code)
	}
	if code := getInto(t, base+"/api/v1/datasets?cluster=nope", nil); code != 404 {
		t.Errorf("unknown cluster = %d, want 404", code)
	}
	var ds struct {
		Datasets []struct {
			Name string `json:"name"`
		} `json:"datasets"`
	}
	if code := getInto(t, base+"/api/v1/datasets?cluster=frontier-0", &ds); code != 200 {
		t.Fatalf("datasets?cluster= = %d", code)
	}
	if len(ds.Datasets) == 0 {
		t.Fatal("no datasets for frontier-0")
	}
	var sum struct {
		Cluster struct {
			MeanW float64 `json:"mean_w"`
		} `json:"cluster_power"`
	}
	if code := getInto(t, base+"/api/v1/analysis/summary?cluster=summit-0", &sum); code != 200 {
		t.Fatalf("analysis summary = %d", code)
	}

	// Fleet summary: per-member rows plus merged totals.
	var fs struct {
		Clusters []struct {
			Cluster   string  `json:"cluster"`
			Nodes     int     `json:"nodes"`
			EnergyMWh float64 `json:"energy_mwh"`
		} `json:"clusters"`
		Fleet struct {
			Clusters  int     `json:"clusters"`
			Nodes     int     `json:"nodes"`
			MaxPowerW float64 `json:"max_power_w"`
			EnergyMWh float64 `json:"energy_mwh"`
		} `json:"fleet"`
	}
	if code := getInto(t, base+"/api/v1/fleet/summary", &fs); code != 200 {
		t.Fatalf("fleet summary = %d", code)
	}
	if fs.Fleet.Clusters != 2 || fs.Fleet.Nodes != 18+12 {
		t.Fatalf("fleet totals = %+v", fs.Fleet)
	}
	sumEnergy := 0.0
	for _, c := range fs.Clusters {
		sumEnergy += c.EnergyMWh
	}
	if math.Abs(fs.Fleet.EnergyMWh-sumEnergy) > 1e-9*sumEnergy {
		t.Errorf("fleet energy %v != Σ cluster energies %v", fs.Fleet.EnergyMWh, sumEnergy)
	}

	// Fleet series merge: the merged fleet curve sums member curves.
	var fss struct {
		Clusters []string `json:"clusters"`
		Points   []struct {
			T int64    `json:"t"`
			V *float64 `json:"v"`
		} `json:"points"`
	}
	u := base + "/api/v1/fleet/series?name=" + source.SeriesClusterPower
	if code := getInto(t, u, &fss); code != 200 {
		t.Fatalf("fleet series = %d", code)
	}
	if len(fss.Clusters) != 2 || len(fss.Points) == 0 {
		t.Fatalf("fleet series = %d clusters, %d points", len(fss.Clusters), len(fss.Points))
	}
	// A single-member "merge" answers the member's own curve.
	var solo fss2
	if code := getInto(t, u+"&clusters=summit-0", &solo); code != 200 {
		t.Fatalf("subset fleet series = %d", code)
	}
	if len(solo.Clusters) != 1 || solo.Clusters[0] != "summit-0" {
		t.Fatalf("subset clusters = %v", solo.Clusters)
	}
	if code := getInto(t, u+"&clusters=nope", nil); code != 404 {
		t.Errorf("unknown subset = %d, want 404", code)
	}
}

// fetch GETs url with the given header name/value pairs and drains the body.
func fetch(t *testing.T, url string, header ...string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp
}

type fss2 struct {
	Clusters []string `json:"clusters"`
}

func TestParseFlags(t *testing.T) {
	if _, err := parseFlags(nil); err == nil || !strings.Contains(err.Error(), "-data") {
		t.Errorf("missing -data accepted: %v", err)
	}
	o, err := parseFlags([]string{"-data", "/x", "-nodes", "72", "-cache-mb", "64"})
	if err != nil {
		t.Fatal(err)
	}
	if o.data != "/x" || o.nodes != 72 || o.cacheMB != 64 {
		t.Errorf("options = %+v", o)
	}
	if _, err := parseFlags([]string{"-data", "/x", "-cache-mb", "-1"}); err == nil || !strings.Contains(err.Error(), "-cache-mb ") {
		t.Errorf("-cache-mb -1: err = %v, want a refusal naming -cache-mb", err)
	}
	if o, err := parseFlags([]string{"-data", "/x", "-cache-mb", "0"}); err != nil || o.cacheMB != 0 {
		t.Errorf("-cache-mb 0 = %+v, %v; want accepted (no cache)", o, err)
	}
	// Each cluster is one archive read in one process: there is nothing to
	// shard, replicate or hedge across. The serving bounds are the
	// handler's defaults, and the scan runs on GOMAXPROCS workers.
	for _, retired := range [][]string{
		{"-shards", "2"}, {"-replicas", "2"}, {"-hedge", "20ms"},
		{"-workers", "2"}, {"-timeout", "1s"}, {"-max-concurrent", "4"}, {"-max-points", "10"},
	} {
		if _, err := parseFlags(append([]string{"-data", "/x"}, retired...)); err == nil {
			t.Errorf("%s accepted", retired[0])
		}
	}
}

func TestNewServerRejectsEmptyArchive(t *testing.T) {
	o, err := parseFlags([]string{"-data", t.TempDir(), "-addr", "127.0.0.1:0", "-q"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := newServer(o, io.Discard); err == nil {
		t.Fatal("empty archive accepted")
	}
}

// TestNewServerRefusesAnArchiveWithoutRunMeta: queryd will not start on an
// archive without its commit record, and says which directory lacks it.
func TestNewServerRefusesAnArchiveWithoutRunMeta(t *testing.T) {
	dir := t.TempDir()
	writeE2EArchive(t, dir)
	if err := os.Remove(filepath.Join(dir, "run-meta-day00000.spwr")); err != nil {
		t.Fatal(err)
	}
	o, err := parseFlags([]string{"-data", dir, "-addr", "127.0.0.1:0", "-q"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := newServer(o, io.Discard); err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "run-meta") {
		t.Fatalf("newServer = %v, want a refusal naming %s and its run-meta", err, dir)
	}
}

func TestPprofGate(t *testing.T) {
	dir := t.TempDir()
	writeE2EArchive(t, dir)
	// Default: profiling endpoints are not mounted.
	base := startQueryd(t, "-data", dir, "-addr", "127.0.0.1:0", "-q")
	if code := getInto(t, base+"/debug/pprof/cmdline", nil); code != 404 {
		t.Fatalf("pprof served without -pprof: status %d", code)
	}
	// Opt-in: mounted, and the query routes still work behind the mux.
	base = startQueryd(t, "-data", dir, "-addr", "127.0.0.1:0", "-q", "-pprof")
	if code := getInto(t, base+"/debug/pprof/cmdline", nil); code != 200 {
		t.Fatalf("pprof status with -pprof = %d", code)
	}
	if code := getInto(t, base+"/healthz", nil); code != 200 {
		t.Fatalf("healthz behind pprof mux = %d", code)
	}
}

// TestNodesMustMatchTheRunManifest: a -nodes that contradicts a cluster's
// run manifest is refused at start, naming the cluster, the flag and the
// manifest's size; a matching one, or none, serves.
func TestNodesMustMatchTheRunManifest(t *testing.T) {
	root := t.TempDir()
	writeFleetRoot(t, root)
	open := func(data string, nodes int) error {
		o, err := parseFlags([]string{"-data", data, "-addr", "127.0.0.1:0", "-nodes", fmt.Sprint(nodes), "-q"})
		if err != nil {
			t.Fatal(err)
		}
		srv, ln, err := newServer(o, io.Discard)
		if err == nil {
			ln.Close()
			srv.Close()
		}
		return err
	}
	single := filepath.Join(root, "summit-0")
	for _, c := range []struct {
		data  string
		nodes int
		want  []string // nil: the server starts
	}{
		{single, 18, nil},
		{single, 0, nil},
		{single, 900, []string{"-nodes 900", single, "(18 nodes)"}},
		{single, 16, []string{"-nodes 16", single, "(18 nodes)"}},
		{root, 18, []string{"cluster frontier-0", "-nodes 18", "(12 nodes)"}},
		{root, 17, []string{"cluster summit-0", "-nodes 17", "(18 nodes)"}},
	} {
		err := open(c.data, c.nodes)
		switch {
		case c.want == nil && err != nil:
			t.Errorf("%s -nodes %d: %v", c.data, c.nodes, err)
		case c.want != nil && err == nil:
			t.Errorf("%s -nodes %d: accepted", c.data, c.nodes)
		case c.want != nil:
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("%s -nodes %d: error %q does not name %q", c.data, c.nodes, err, w)
				}
			}
		}
	}
}
