package stream

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/telemetry"
)

// --- test-only oracles: the reflection-encoded values the append encoders
// of rollup and health replaced, marshalled by encoding/json ---

type apiPoint struct {
	T int64  `json:"t"`
	V jfloat `json:"v"`
}

type apiGroupSeries struct {
	Group  int        `json:"group"`
	Label  string     `json:"label"`
	Points []apiPoint `json:"points"`
}

type apiRollup struct {
	Group   string           `json:"group"`
	Step    int64            `json:"step"`
	Windows int64            `json:"windows_total"`
	EnergyJ jfloat           `json:"energy_j"`
	Points  []apiPoint       `json:"points,omitempty"`
	Series  []apiGroupSeries `json:"series,omitempty"`
}

func legacyRollup(r *rollupReply) *apiRollup {
	out := &apiRollup{Group: r.group, Step: r.snap.Step, Windows: r.snap.Windows, EnergyJ: jfloat(r.snap.EnergyJ)}
	if r.label == nil {
		for i := range r.snap.Recent {
			out.Points = append(out.Points, apiPoint{T: r.snap.Recent[i].T, V: jfloat(r.val(&r.snap.Recent[i], 0))})
		}
		return out
	}
	out.Series = make([]apiGroupSeries, r.groups)
	for g := range out.Series {
		s := apiGroupSeries{Group: g, Label: r.label(g)}
		for i := range r.snap.Recent {
			s.Points = append(s.Points, apiPoint{T: r.snap.Recent[i].T, V: jfloat(r.val(&r.snap.Recent[i], g))})
		}
		out.Series[g] = s
	}
	return out
}

func legacyHealth(hs *HealthState) map[string]any {
	shards := make([]map[string]any, len(hs.Shards))
	for i, sh := range hs.Shards {
		shards[i] = map[string]any{"queue_len": sh.QueueLen, "queue_cap": sh.QueueCap}
	}
	var watermark any
	if hs.WatermarkT != math.MinInt64 {
		watermark = hs.WatermarkT
	}
	return map[string]any{
		"status":          hs.Status,
		"reasons":         hs.Reasons,
		"received":        hs.Ingest.Received,
		"dropped":         hs.Ingest.Dropped,
		"dropped_conns":   hs.Ingest.DroppedConns,
		"rejected":        hs.Ingest.Rejected,
		"late":            hs.Ingest.Late,
		"events":          hs.Ingest.Events,
		"frames":          hs.Ingest.Frames,
		"channel_windows": hs.Ingest.ChannelWindows,
		"watermark_t":     watermark,
		"last_window_t":   hs.LastWindowT,
		"shards":          shards,
	}
}

// stdJSON is what writeJSON puts on the wire: encoding/json, HTML escaping
// off, trailing newline.
func stdJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplyEncodersMatchEncodingJSON compares the append-encoded rollup and
// health replies with encoding/json over the values they replaced, byte for
// byte: key order, omitempty, nil lists as null, NaN/Inf as null, escaping.
func TestReplyEncodersMatchEncodingJSON(t *testing.T) {
	awkward := []float64{0, math.Copysign(0, -1), 1.5, 1e-7, 1e21, 2212.3400000000001, math.NaN(), math.Inf(1), math.Inf(-1)}
	var ws []RollupWindow
	for i, f := range awkward {
		g := awkward[(i+4)%len(awkward)]
		ws = append(ws, RollupWindow{T: int64(i)*10 - 30, Observed: i, FleetW: f, CabinetW: []float64{f, g}, MSBW: []float64{g, -f, f}})
	}
	snap := RollupSnapshot{Step: 10, Windows: 12345, EnergyJ: 9.87654321e12, Cabinets: 2, MSBs: 3, Recent: ws}
	empty := RollupSnapshot{Step: 10, EnergyJ: math.NaN(), Cabinets: 2, MSBs: 3}
	odd := func(g int) string { return "cab \"" + strconv.Itoa(g) + "\"\t<&>\u2028\\" }
	rollups := []*rollupReply{
		{group: "fleet", snap: snap, val: fleetW},
		{group: "cabinet", snap: snap, val: cabinetW, groups: 2, label: cabinetLabel},
		{group: "msb", snap: snap, val: msbW, groups: 3, label: msbLabel},
		{group: "cabinet", snap: snap, val: cabinetW, groups: 2, label: odd},
		{group: "fleet", snap: empty, val: fleetW},                                     // points omitted
		{group: "cabinet", snap: empty, val: cabinetW, groups: 2, label: cabinetLabel}, // "points":null
		{group: "msb", snap: empty, val: msbW, groups: 0, label: msbLabel},             // series omitted
	}
	// Real answers: a feed with a gap window (NaN sums).
	p := mustPipeline(t, Config{Nodes: 40})
	p.Ingest([]telemetry.Sample{powerSample(0, 0, 500.25), powerSample(39, 3, 1e-7)})
	p.Ingest([]telemetry.Sample{powerSample(7, 30, 812.5)})
	p.Close()
	real := p.RollupSnapshot(0)
	rollups = append(rollups,
		&rollupReply{group: "fleet", snap: real, val: fleetW},
		&rollupReply{group: "cabinet", snap: real, val: cabinetW, groups: real.Cabinets, label: cabinetLabel},
		&rollupReply{group: "msb", snap: real, val: msbW, groups: real.MSBs, label: msbLabel})
	for i, r := range rollups {
		if got, want := append(r.AppendJSON(nil), '\n'), stdJSON(t, legacyRollup(r)); !bytes.Equal(got, want) {
			t.Errorf("rollup %d:\n got %s\nwant %s", i, got, want)
		}
	}

	healthy := p.Health()
	fresh := mustPipeline(t, Config{Nodes: 600}) // no data: watermark_t null
	defer fresh.Close()
	idle := fresh.Health()
	healths := []*HealthState{
		&healthy, &idle,
		{Status: "degraded", Reasons: []string{"ingest queue overflow dropped samples", "a \"quoted\"\nreason"},
			Ingest:     IngestStats{Received: 1 << 40, Dropped: 3, Rejected: 4, Late: 5, Events: 7, Frames: 8, ChannelWindows: 9, DroppedConns: 10},
			WatermarkT: -5, LastWindowT: math.MinInt64, Shards: []QueueStat{{QueueLen: 256, QueueCap: 256}, {QueueCap: 1}}},
		{Status: "ok", Reasons: []string{}, WatermarkT: math.MinInt64, Shards: []QueueStat{}},
	}
	for i, hs := range healths {
		if got, want := append(hs.AppendJSON(nil), '\n'), stdJSON(t, legacyHealth(hs)); !bytes.Equal(got, want) {
			t.Errorf("health %d:\n got %s\nwant %s", i, got, want)
		}
	}
	if healthy.Reasons != nil || idle.WatermarkT != math.MinInt64 || len(idle.Shards) != 1 {
		t.Errorf("fixtures lost their point: reasons %v, idle %+v", healthy.Reasons, idle)
	}
}

// TestEncodedRepliesCarryTheirLength: the two append-encoded routes send
// one JSON line with Content-Length, over the real handler.
func TestEncodedRepliesCarryTheirLength(t *testing.T) {
	h := NewHandler(servedPipeline(t), ServeConfig{})
	for _, path := range []string{"/api/v1/live/health", "/api/v1/live/rollup?group=cabinet", "/api/v1/live/rollup"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		body := rec.Body.Bytes()
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, type %q", path, rec.Code, rec.Header().Get("Content-Type"))
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q, body is %d bytes", path, cl, len(body))
		}
		if !json.Valid(body) || body[len(body)-1] != '\n' {
			t.Errorf("%s: body is not one JSON line: %.80s", path, body)
		}
	}
}
