package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

func TestParseFlags(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.nodes != 72 || o.simMinutes != 0 {
		t.Errorf("defaults = %+v", o)
	}
	if _, err := parseFlags([]string{"-nodes", "0"}); err == nil || !strings.Contains(err.Error(), "-nodes ") {
		t.Errorf("-nodes 0: err = %v, want a refusal naming -nodes", err)
	}
	// A negative or non-finite feed length used to start no feed, silently.
	for _, m := range []string{"-5", "NaN", "+Inf", "-Inf"} {
		if _, err := parseFlags([]string{"-sim-minutes", m}); err == nil || !strings.Contains(err.Error(), "-sim-minutes ") {
			t.Errorf("-sim-minutes %s: err = %v, want a refusal naming -sim-minutes", m, err)
		}
	}
	// The window grid and lateness bound are the paper's, and the queue
	// and serving bounds the pipeline's and the handler's defaults.
	for _, gone := range [][]string{
		{"-no-such-flag"}, {"-step", "10"}, {"-lateness", "5"}, {"-queue", "256"},
		{"-timeout", "10s"}, {"-max-concurrent", "32"},
	} {
		if _, err := parseFlags(gone); err == nil {
			t.Errorf("%s accepted", gone[0])
		}
	}
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
	}
	return out
}

// TestServiceEndToEnd runs the whole streamd path on loopback: embedded
// simulated feed → TCP transport → stream pipeline → live HTTP API →
// graceful shutdown. Together with `make stream-check` this is the
// acceptance run for the live plane.
func TestServiceEndToEnd(t *testing.T) {
	o := options{
		addr:       "127.0.0.1:0",
		ingest:     "127.0.0.1:0",
		nodes:      18,
		simMinutes: 10,
		quiet:      true,
	}
	s, err := newService(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	ran := make(chan error, 1)
	go func() { ran <- serve.Run(ctx, s.srv, s.ln, s.stopIngest) }()

	if err := <-s.feed; err != nil {
		t.Fatalf("embedded feed: %v", err)
	}
	base := "http://" + s.ln.Addr().String()

	// The feed has returned but delivery is asynchronous (TCP frames may
	// still be draining into the pipeline); poll until frames appear.
	deadline := time.Now().Add(10 * time.Second)
	var health map[string]any
	for {
		health = getJSON(t, base+"/api/v1/live/health")
		// 10 simulated minutes = 60 windows; all but the few behind the
		// lateness bound must be finalized once the transport drains.
		if health["frames"].(float64) >= 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never caught up: health %v", health)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if health["status"] != "ok" {
		t.Errorf("health = %v", health)
	}
	if health["received"].(float64) == 0 || health["watermark_t"] == nil {
		t.Errorf("health counters = %v", health)
	}

	rollup := getJSON(t, base+"/api/v1/live/rollup")
	if rollup["windows_total"].(float64) < 50 {
		t.Errorf("rollup windows = %v", rollup["windows_total"])
	}
	points := rollup["points"].([]any)
	if len(points) == 0 {
		t.Fatal("no fleet points")
	}
	last := points[len(points)-1].(map[string]any)
	if v, ok := last["v"].(float64); !ok || v <= 0 {
		t.Errorf("latest fleet power = %v, want positive", last["v"])
	}

	bands := getJSON(t, base+"/api/v1/live/bands")
	if bands["total_gpus"].(float64) != float64(18*6) {
		t.Errorf("total_gpus = %v", bands["total_gpus"])
	}

	ew := getJSON(t, base+"/api/v1/live/earlywarning")
	if len(ew["pairs"].([]any)) != 3 {
		t.Errorf("earlywarning pairs = %v", ew["pairs"])
	}

	stop() // what SIGTERM does: the daemon's own shutdown tail
	if err := <-ran; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The pipeline is flushed and still snapshotable after shutdown.
	snap := s.pipe.Snapshot()
	if snap.Ingest.Frames < 60 {
		t.Errorf("frames after flush = %d, want 60", snap.Ingest.Frames)
	}
	// No loss across the transport: every sample the feed sent arrived, no
	// connection was dropped, and the pipeline dropped, refused as late or
	// rejected none of them.
	if got := snap.Ingest.Received; s.sent == 0 || got != s.sent {
		t.Errorf("pipeline received %d samples, feed sent %d", got, s.sent)
	}
	if d := snap.Ingest.Dropped + snap.Ingest.Late + snap.Ingest.Rejected + snap.Ingest.DroppedConns; d != 0 {
		t.Errorf("pipeline lost %d samples or connections: %+v", d, snap.Ingest)
	}
}

// TestHealthCountsDroppedIngestConnections sends one oversized length
// prefix to a running service: the transport drops that connection, and
// live health must say so.
func TestHealthCountsDroppedIngestConnections(t *testing.T) {
	o := options{
		addr:   "127.0.0.1:0",
		ingest: "127.0.0.1:0",
		nodes:  18,
	}
	s, err := newService(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- serve.Run(ctx, s.srv, s.ln, s.stopIngest) }()
	defer func() {
		stop()
		if err := <-ran; err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", s.tsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.ln.Addr().String()
	deadline := time.Now().Add(10 * time.Second)
	for {
		health := getJSON(t, base+"/api/v1/live/health")
		if health["dropped_conns"] == 1.0 {
			if health["status"] != "degraded" {
				t.Errorf("a dropped connection left health %v", health)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("health never counted the dropped connection: %v", health)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFeedWaitsForThePipelineEachWindow runs the embedded feed into a
// pipeline whose queue holds one window's batches and one more: 576 nodes
// on two exporters send at most 16 batches a window. A feed that pushed
// the next window before the pipeline had drained the last would overflow
// it; this one must lose nothing.
func TestFeedWaitsForThePipelineEachWindow(t *testing.T) {
	cfg := repro.ScaledConfig(576, 10*time.Minute)
	pipe, err := stream.NewPipeline(stream.Config{Nodes: cfg.Nodes, StartTime: cfg.StartTime, QueueDepth: 17})
	if err != nil {
		t.Fatal(err)
	}
	tsrv, err := telemetry.NewServer("127.0.0.1:0", pipe.Ingest, pipe.DroppedConns())
	if err != nil {
		t.Fatal(err)
	}
	sent, err := runFeed(cfg, pipe, tsrv.Addr(), make(chan struct{}), true, io.Discard)
	if cerr := tsrv.Close(); err != nil || cerr != nil {
		t.Fatalf("feed: %v, closing the transport: %v", err, cerr)
	}
	pipe.Close()
	st := pipe.Snapshot().Ingest
	if sent == 0 || st.Received != sent || st.Dropped+st.Late+st.Rejected+st.DroppedConns != 0 {
		t.Errorf("feed sent %d samples; pipeline %+v", sent, st)
	}
}
