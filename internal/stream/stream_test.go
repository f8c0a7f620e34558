package stream

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/topology"
)

func powerSample(node topology.NodeID, t int64, v float64) telemetry.Sample {
	return telemetry.Sample{Node: node, Metric: telemetry.MetricInputPower, T: t, Value: v}
}

func mustPipeline(t testing.TB, cfg Config) *Pipeline {
	t.Helper()
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// waitUntil polls cond until it holds, failing the test after 10 s: a
// hang must fail, not block the suite.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second) //lint:allow determinism test deadline: a hang must fail, not block the suite
	for !cond() {
		if time.Now().After(deadline) { //lint:allow determinism test deadline: a hang must fail, not block the suite
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestBackpressureNeverBlocksIngest is the load-shedding
// acceptance test: with a stalled consumer — the test holds the snapshot
// lock, so the fold goroutine waits inside applyFrame — and a bursty
// producer, Ingest must keep returning immediately, dropping and counting
// instead of stalling the fan-in path. Releasing the lock must drain
// cleanly, Close must return, and health must report the degradation.
func TestBackpressureNeverBlocksIngest(t *testing.T) {
	p := mustPipeline(t, Config{
		Nodes:      4,
		QueueDepth: 1,
	})
	p.mu.Lock()

	// Advance the watermark until the first frame reaches applyFrame,
	// which counts its channel windows before it waits for the lock. The
	// depth-1 queue may drop bursts along the way — that is the design —
	// so keep offering batches until the fold goroutine is wedged.
	// Bounded: if the frame never arrives, fail instead of hanging.
	ts := int64(0)
	wedged := false
	for i := 0; i < 1_000_000 && !wedged; i++ {
		if p.chanWindows.Load() > 0 {
			wedged = true
		} else {
			p.Ingest([]telemetry.Sample{powerSample(0, ts, 100)})
			ts += 10
		}
	}
	if !wedged {
		t.Fatal("first frame never reached the operator chain")
	}

	// Bursty producer against a wedged consumer: the queue (depth 1)
	// fills, then every further batch is dropped. The
	// loop is bounded — if Ingest ever blocked, or nothing was ever
	// dropped, the test fails rather than hanging.
	base := p.dropped.Load()
	dropped := false
	for i := 0; i < 1_000_000; i++ {
		p.Ingest([]telemetry.Sample{powerSample(0, ts, 100)})
		ts += 10
		if p.dropped.Load() > base {
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("stalled consumer never caused a drop; is the queue unbounded?")
	}

	p.mu.Unlock() // consumer recovers
	p.Close()

	h := p.Health()
	if h.Status != "degraded" {
		t.Errorf("health after drops = %q, want degraded", h.Status)
	}
	found := false
	for _, r := range h.Reasons {
		if strings.Contains(r, "overflow") {
			found = true
		}
	}
	if !found {
		t.Errorf("health reasons %v do not mention queue overflow", h.Reasons)
	}
	snap := p.Snapshot()
	if snap.Ingest.Dropped == 0 {
		t.Error("snapshot lost the drop count")
	}
	if snap.Ingest.Frames == 0 || snap.Rollup.Windows == 0 {
		t.Errorf("no frames applied: pipeline=%d rollup=%d", snap.Ingest.Frames, snap.Rollup.Windows)
	}
	if snap.Rollup.Windows != snap.Ingest.Frames {
		t.Errorf("rollup saw %d frames, pipeline applied %d", snap.Rollup.Windows, snap.Ingest.Frames)
	}
}

// TestFrameGridMaterialized verifies the pipeline materializes the full
// window grid between the first and last data: sparse input still yields
// one frame per step, with Observed==0 on the gaps, and operators see
// strictly ascending starts.
func TestFrameGridMaterialized(t *testing.T) {
	p := mustPipeline(t, Config{Nodes: 2})
	p.Ingest([]telemetry.Sample{powerSample(0, 0, 50), powerSample(1, 3, 70)})
	p.Ingest([]telemetry.Sample{powerSample(0, 100, 80)})
	p.Close()

	snap := p.Snapshot()
	r := snap.Rollup
	if r.Windows != 11 || len(r.Recent) != 11 {
		t.Fatalf("frames = %d (%d retained), want 11 (t=0..100 inclusive): %+v", r.Windows, len(r.Recent), r.Recent)
	}
	for i, w := range r.Recent {
		if w.T != int64(i)*10 {
			t.Fatalf("frame %d start = %d, want %d", i, w.T, i*10)
		}
	}
	if r.Recent[0].Observed != 2 || r.Recent[10].Observed != 1 {
		t.Errorf("edge frames observed = %d,%d, want 2,1", r.Recent[0].Observed, r.Recent[10].Observed)
	}
	for i := 1; i < 10; i++ {
		if r.Recent[i].Observed != 0 {
			t.Errorf("gap frame %d observed = %d, want 0", i, r.Recent[i].Observed)
		}
	}
	if snap.SpanSec != 110 {
		t.Errorf("SpanSec = %d, want 110", snap.SpanSec)
	}
	if snap.Ingest.Frames != 11 {
		t.Errorf("Frames counter = %d, want 11", snap.Ingest.Frames)
	}
	// Gap windows roll up as NaN (nothing observed), edges as real sums.
	if r.Recent[0].FleetW != 120 || r.Recent[10].FleetW != 80 {
		t.Errorf("rollup edges = %v, %v, want 120, 80", r.Recent[0].FleetW, r.Recent[10].FleetW)
	}
	if !math.IsNaN(r.Recent[5].FleetW) {
		t.Errorf("gap rollup = %v, want NaN", r.Recent[5].FleetW)
	}
}

// TestShardedMergeOrdersFrames feeds every node in each batch and checks
// each frame's fleet rollup equals the node-order sum — a frame waits for
// the watermark, never going out while a node could still contribute.
func TestShardedMergeOrdersFrames(t *testing.T) {
	const nodes, windows = 8, 12
	p := mustPipeline(t, Config{Nodes: nodes, QueueDepth: 64})
	for w := 0; w < windows; w++ {
		var batch []telemetry.Sample
		for n := 0; n < nodes; n++ {
			batch = append(batch, powerSample(topology.NodeID(n), int64(w*10), float64(100+n+w)))
		}
		p.Ingest(batch)
	}
	p.Close()
	snap := p.Snapshot()
	if st := snap.Ingest; st.Dropped != 0 || st.Late != 0 {
		t.Fatalf("lossless feed lost data: %+v", st)
	}
	if len(snap.Rollup.Recent) != windows {
		t.Fatalf("rollup windows = %d, want %d", len(snap.Rollup.Recent), windows)
	}
	for w, win := range snap.Rollup.Recent {
		sum := 0.0
		for n := 0; n < nodes; n++ {
			sum += float64(100 + n + w)
		}
		if math.Float64bits(win.FleetW) != math.Float64bits(sum) {
			t.Errorf("window %d fleet = %v, want %v", w, win.FleetW, sum)
		}
		if win.Observed != nodes {
			t.Errorf("window %d observed = %d, want %d", w, win.Observed, nodes)
		}
	}
}

// TestLateSampleDropped pins the lateness bound: once the watermark
// has finalized a window, a straggler for it is dropped and counted.
func TestLateSampleDropped(t *testing.T) {
	p := mustPipeline(t, Config{Nodes: 1})
	p.Ingest([]telemetry.Sample{powerSample(0, 100, 1)}) // watermark 95
	p.Ingest([]telemetry.Sample{powerSample(0, 12, 2)})  // window 10 long closed
	p.Close()
	snap := p.Snapshot()
	if snap.Ingest.Late != 1 {
		t.Errorf("late = %d, want 1", snap.Ingest.Late)
	}
	if h := p.Health(); h.Status != "degraded" {
		t.Errorf("health with late drops = %q, want degraded", h.Status)
	}
}

// TestFarFutureSampleIsRefusedDeterministically runs the probe that made
// the answer depend on goroutine order: node 0 at 100 s and 110 s, then
// node 1 thirty days later, into a 1 024-node pipeline. The far sample
// lies beyond the horizon of ringDepth windows ahead of the watermark, so
// it is rejected — not applied as 259 200 empty frames — and every run,
// whether the probe comes as three batches or as one, gives the same
// counters and the same two frames.
func TestFarFutureSampleIsRefusedDeterministically(t *testing.T) {
	const month = 30 * 86400
	probe := []telemetry.Sample{powerSample(0, 100, 1), powerSample(0, 110, 1), powerSample(1, 100+month, 1)}
	var first HealthState
	for run := 0; run < 50; run++ {
		p := mustPipeline(t, Config{Nodes: 1024})
		if run%2 == 0 {
			for i := range probe {
				p.Ingest(probe[i : i+1])
			}
		} else {
			p.Ingest(probe)
		}
		p.Close()
		h := p.Health()
		if st := h.Ingest; st.Frames != 2 || st.Rejected != 1 || st.Late != 0 {
			t.Fatalf("run %d: frames %d rejected %d late %d, want 2, 1, 0",
				run, st.Frames, st.Rejected, st.Late)
		}
		if run == 0 {
			first = h
			if len(h.Reasons) != 1 || !strings.Contains(h.Reasons[0], "4096 windows") {
				t.Fatalf("reasons %q do not name the horizon", h.Reasons)
			}
			continue
		}
		if h.Ingest != first.Ingest || h.WatermarkT != first.WatermarkT || h.LastWindowT != first.LastWindowT {
			t.Fatalf("run %d: health %+v, run 0 %+v", run, h, first)
		}
	}
}

// TestHorizonStartsAtTheFirstSample: before any sample there is no
// watermark, so a feed anchored far from StartTime is accepted; after it,
// a sample exactly ringDepth windows ahead of the watermark is accepted
// and one a second further is refused.
func TestHorizonStartsAtTheFirstSample(t *testing.T) {
	const far = 1 << 32
	p := mustPipeline(t, Config{Nodes: 1})
	p.Ingest([]telemetry.Sample{powerSample(0, far, 1)}) // watermark far-5
	p.Ingest([]telemetry.Sample{powerSample(0, far-5+ringDepth*10+1, 1)})
	p.Ingest([]telemetry.Sample{powerSample(0, far-5+ringDepth*10, 1)})
	p.Close()
	st := p.Snapshot().Ingest
	if st.Rejected != 1 || st.Frames != ringDepth+1 {
		t.Errorf("rejected %d frames %d, want 1 and %d", st.Rejected, st.Frames, ringDepth+1)
	}
}

// TestIngestValidation checks rejection counting and that rejected
// samples never reach the channel table.
func TestIngestValidation(t *testing.T) {
	p := mustPipeline(t, Config{Nodes: 2, StartTime: 1000})
	p.Ingest([]telemetry.Sample{
		powerSample(5, 1000, 1),  // node out of range
		powerSample(-1, 1000, 1), // negative node
		powerSample(0, 900, 1),   // before the grid
		{Node: 0, Metric: telemetry.NumMetrics, T: 1000, Value: 1}, // no such metric
		powerSample(0, 1000, 42),                                   // valid
	})
	p.Close()
	snap := p.Snapshot()
	if snap.Ingest.Received != 5 || snap.Ingest.Rejected != 4 {
		t.Errorf("received/rejected = %d/%d, want 5/4", snap.Ingest.Received, snap.Ingest.Rejected)
	}
	if len(snap.Rollup.Recent) != 1 || snap.Rollup.Recent[0].FleetW != 42 {
		t.Errorf("valid sample lost: %+v", snap.Rollup.Recent)
	}
	if snap.Ingest.ChannelWindows != 1 {
		t.Errorf("channel windows = %d, want 1: a rejected sample reached the channel table", snap.Ingest.ChannelWindows)
	}
}

// TestMetricBeyondTableIsRejected: metric ids are bounded by
// telemetry.NumMetrics. Metric 256 of node 0 used to share a channel key
// (node<<8 | metric) with metric 0 — input power — of node 1 and fold into
// its window.
func TestMetricBeyondTableIsRejected(t *testing.T) {
	p := mustPipeline(t, Config{Nodes: 2})
	p.Ingest([]telemetry.Sample{
		{Node: 0, Metric: 256, T: 0, Value: 9000},
		powerSample(1, 0, 500),
	})
	p.Close()
	snap := p.Snapshot()
	if snap.Ingest.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", snap.Ingest.Rejected)
	}
	if w := snap.Rollup.Recent; len(w) != 1 || w[0].FleetW != 500 || w[0].Observed != 1 {
		t.Errorf("rollup = %+v, want node 1's 500 W alone", w)
	}
}

// TestHealthDoesNotWaitForTheOperatorChain: with the fold goroutine stuck
// inside applyFrame — waiting for the snapshot lock the test holds — Health
// and the health route still answer, and report the last frame that
// completed.
func TestHealthDoesNotWaitForTheOperatorChain(t *testing.T) {
	p := mustPipeline(t, Config{Nodes: 1})
	defer p.Close()
	for k := int64(0); k <= 20; k += 10 {
		p.Ingest([]telemetry.Sample{powerSample(0, k, 100)})
	}
	waitUntil(t, "frame 0 applied", func() bool { return p.frames.Load() == 1 })
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := int64(30); k <= 40; k += 10 {
		p.Ingest([]telemetry.Sample{powerSample(0, k, 100)})
	}
	// applyFrame counts a frame's channel windows before it takes the lock.
	waitUntil(t, "frame 10 stuck in the operator chain", func() bool { return p.chanWindows.Load() == 2 })
	within := func(what string, lastWindow func() int64) {
		t.Helper()
		done := make(chan int64, 1)
		go func() { done <- lastWindow() }()
		//lint:allow determinism only the deadline arm races, and it fails the test
		select {
		case last := <-done:
			if last != 0 {
				t.Errorf("%s reports last window %d while frame 10 is still being applied, want 0", what, last)
			}
		case <-time.After(5 * time.Second): //lint:allow determinism test deadline: a hang must fail, not block the suite
			t.Fatalf("%s waited for the operator lock", what)
		}
	}
	within("Health", func() int64 { return p.Health().LastWindowT })
	within("GET health", func() int64 {
		rec := httptest.NewRecorder()
		NewHandler(p, ServeConfig{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/live/health", nil))
		var body struct {
			LastWindowT int64 `json:"last_window_t"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			return -1
		}
		return body.LastWindowT
	})
}

// TestCloseIdempotentAndIngestAfterClose: Close twice is safe; batches
// offered after Close are counted as dropped, not delivered.
func TestCloseIdempotentAndIngestAfterClose(t *testing.T) {
	p := mustPipeline(t, Config{Nodes: 1})
	p.Ingest([]telemetry.Sample{powerSample(0, 0, 1)})
	p.Close()
	p.Close()
	p.Ingest([]telemetry.Sample{powerSample(0, 10, 1), powerSample(0, 20, 1)})
	snap := p.Snapshot()
	if snap.Ingest.Dropped != 2 {
		t.Errorf("post-close dropped = %d, want 2", snap.Ingest.Dropped)
	}
	if snap.Ingest.Frames != 1 {
		t.Errorf("frames = %d, want 1", snap.Ingest.Frames)
	}
}

// TestSnapshotConsistentUnderLoad takes snapshots concurrently with
// ingestion; the race detector is the real assertion, plus monotonicity
// of the frame counter and span.
func TestSnapshotConsistentUnderLoad(t *testing.T) {
	p := mustPipeline(t, Config{Nodes: 4, QueueDepth: 512})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var lastFrames, lastSpan int64
		for i := 0; i < 200; i++ {
			s := p.Snapshot()
			if s.Ingest.Frames < lastFrames || s.SpanSec < lastSpan {
				t.Errorf("snapshot went backwards: frames %d->%d span %d->%d",
					lastFrames, s.Ingest.Frames, lastSpan, s.SpanSec)
				return
			}
			lastFrames, lastSpan = s.Ingest.Frames, s.SpanSec
		}
	}()
	for w := 0; w < 400; w++ {
		var batch []telemetry.Sample
		for n := 0; n < 4; n++ {
			batch = append(batch, powerSample(topology.NodeID(n), int64(w*10), 100))
		}
		p.Ingest(batch)
	}
	<-done
	p.Close()
}

// TestConfigValidation: a pipeline needs a positive node count; defaults
// fill everything else.
func TestConfigValidation(t *testing.T) {
	if _, err := NewPipeline(Config{}); err == nil {
		t.Error("zero-node pipeline accepted")
	}
	p := mustPipeline(t, Config{Nodes: 1})
	defer p.Close()
	if p.cfg.QueueDepth != 256 {
		t.Errorf("default queue = %d", p.cfg.QueueDepth)
	}
	if p.edges.det.Threshold() != 868 {
		t.Errorf("1-node edge threshold = %v, want 868", p.edges.det.Threshold())
	}
}
