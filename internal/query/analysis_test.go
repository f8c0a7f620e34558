package query

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/source"
	"repro/internal/tsagg"
)

// analysisServer serves the shared fixture archive with its RunSource
// attached, the way cmd/queryd wires it: one cache for both tiers.
func analysisServer(t *testing.T) (*httptest.Server, *Engine) {
	t.Helper()
	dir := t.TempDir()
	writeTestArchive(t, dir)
	eng, err := Open(Config{Dir: dir, Nodes: fixNodes})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(singleHandler(t, eng, nil, ServerConfig{}))
	t.Cleanup(srv.Close)
	return srv, eng
}

func TestHTTPAnalysisSummary(t *testing.T) {
	srv, eng := analysisServer(t)
	var body struct {
		Series []struct {
			Name    string   `json:"name"`
			Windows int64    `json:"windows"`
			Mean    *float64 `json:"mean"`
		} `json:"series"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/analysis/summary", &body); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(body.Series) != 1 || body.Series[0].Name != source.SeriesClusterPower {
		t.Fatalf("series = %+v", body.Series)
	}
	wantWindows := int64(fixDays) * daySec / fixStep
	if body.Series[0].Windows != wantWindows || body.Series[0].Mean == nil {
		t.Errorf("summary row = %+v, want %d windows", body.Series[0], wantWindows)
	}
	if got := eng.Metrics().AnalysisQueries.Load(); got != 1 {
		t.Errorf("analysis counter = %d, want 1", got)
	}
}

func TestHTTPAnalysisEdgesAndSwings(t *testing.T) {
	srv, _ := analysisServer(t)
	var edges struct {
		ThresholdMW *float64 `json:"threshold_mw"`
		Edges       []struct {
			T int64 `json:"t"`
		} `json:"edges"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/analysis/edges", &edges); code != 200 {
		t.Fatalf("edges status %d", code)
	}
	if edges.ThresholdMW == nil || *edges.ThresholdMW <= 0 {
		t.Errorf("threshold = %v", edges.ThresholdMW)
	}
	var swings struct {
		MaxRiseW *float64 `json:"max_rise_w"`
		Top      []struct {
			FreqHz *float64 `json:"freq_hz"`
		} `json:"top"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/analysis/swings", &swings); code != 200 {
		t.Fatalf("swings status %d", code)
	}
	if swings.MaxRiseW == nil || len(swings.Top) == 0 {
		t.Errorf("swings = %+v", swings)
	}
}

// TestHTTPAnalysisUnavailable: analyses whose datasets the archive lacks
// answer 404, and a cluster without a source is refused at construction, as
// one without an engine is.
func TestHTTPAnalysisUnavailable(t *testing.T) {
	srv, eng := analysisServer(t)
	for _, route := range []string{"bands", "validation", "earlywarning", "failures", "jobs"} {
		var body struct {
			Error string `json:"error"`
		}
		if code := getJSON(t, srv.URL+"/api/v1/analysis/"+route, &body); code != 404 {
			t.Errorf("%s: status %d (%s), want 404", route, code, body.Error)
		}
	}
	if _, err := NewFleetHandler([]Cluster{{Name: "bare", Engine: eng}}, ServerConfig{}); err == nil || !strings.Contains(err.Error(), `"bare" has no source`) {
		t.Errorf("a cluster without a source: %v, want a refusal naming it", err)
	}
}

// TestValidationWithoutMeters: a run with no meter series has no Figure 4
// on either plane. ValidationFromSource says so with source.ErrUnavailable
// over memory and over the archive, the route answers 404 with that
// message, and the reply cache stores nothing: every request computes
// again.
func TestValidationWithoutMeters(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)
	eng, err := Open(Config{Dir: dir, Nodes: fixNodes})
	if err != nil {
		t.Fatal(err)
	}
	arc := eng.Source()
	mem := &source.MemorySource{
		RunMeta:      source.Meta{StepSec: fixStep, Nodes: fixNodes, Windows: 4},
		SeriesByName: map[string]*tsagg.Series{source.SeriesClusterPower: tsagg.NewSeries(0, fixStep, 4)},
	}
	if _, err := core.ValidationFromSource(mem); !errors.Is(err, source.ErrUnavailable) {
		t.Errorf("memory plane without meters: %v, want source.ErrUnavailable", err)
	}
	_, arcErr := core.ValidationFromSource(arc)
	if !errors.Is(arcErr, source.ErrUnavailable) {
		t.Fatalf("archive plane without meters: %v, want source.ErrUnavailable", arcErr)
	}

	h := singleHandler(t, eng, arc, ServerConfig{})
	before := memoVars(t, h)
	for i := 0; i < 2; i++ {
		rec := get(t, h, context.Background(), "/api/v1/analysis/validation")
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("request %d: %v: %s", i, err, rec.Body.Bytes())
		}
		if rec.Code != http.StatusNotFound || body.Error != arcErr.Error() {
			t.Errorf("request %d: %d %q, want 404 %q", i, rec.Code, body.Error, arcErr.Error())
		}
	}
	after := memoVars(t, h)
	if after["computes"] != before["computes"]+2 || after["entries"] != before["entries"] {
		t.Errorf("reply cache computes %d -> %d, entries %d -> %d; want +2 computes and no entry",
			before["computes"], after["computes"], before["entries"], after["entries"])
	}
}

func TestHTTPAnalysisBadWindow(t *testing.T) {
	srv, _ := analysisServer(t)
	var body struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/analysis/earlywarning?window=-5", &body); code != 400 {
		t.Fatalf("status %d (%s), want 400", code, body.Error)
	}
}
