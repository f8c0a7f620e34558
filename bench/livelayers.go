package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/stream"
	"repro/internal/telemetry"
)

// codecProbeFrames is how many frames the telemetry codec probes time.
const codecProbeFrames = 200

// traceLive replays the feed in process: the wire codec on the workload's
// frame size, Pipeline.Ingest paced so nothing drops (the call time is the
// producer's cost), Snapshot and the rollup handler on the loaded pipeline,
// and an unpaced ingest-and-close for the drain cost.
func traceLive(res *runResult, tr *tracer, feed liveFeed, sz sizes) error {
	perTick := feed.samplesPerTick()
	frame := perTick / 4
	ticks := make([][]telemetry.Sample, sz.LiveEventSec)
	for k := range ticks {
		ticks[k] = make([]telemetry.Sample, perTick)
		feed.fill(ticks[k], k)
	}
	samples := float64(sz.LiveEventSec * perTick)

	var err error
	tr.in("bench.live-ingest.codec", func() {
		var wire []byte
		start := time.Now()
		tr.in("telemetry.EncodeFrame", func() {
			for i := 0; i < codecProbeFrames && err == nil; i++ {
				wire, err = telemetry.EncodeFrame(ticks[i%len(ticks)][:frame])
			}
		})
		res.set("telemetry.encode_ns_per_sample", float64(time.Since(start))/float64(codecProbeFrames*frame), codecProbeFrames*frame)
		if err != nil {
			return
		}
		start = time.Now()
		tr.in("telemetry.DecodeFrame", func() {
			for i := 0; i < codecProbeFrames && err == nil; i++ {
				_, err = telemetry.DecodeFrame(wire[4:]) // without the length prefix
			}
		})
		res.set("telemetry.decode_ns_per_sample", float64(time.Since(start))/float64(codecProbeFrames*frame), codecProbeFrames*frame)
	})
	if err != nil {
		return err
	}

	// Paced ingest: after each event-second wait until the shard queues are
	// empty, so the queue never overflows and only the call is timed.
	replay := func(tr *tracer, probe bool) (time.Duration, error) {
		pipe, err := stream.NewPipeline(stream.Config{Nodes: feed.nodes})
		if err != nil {
			return 0, err
		}
		defer pipe.Close()
		root := tr.begin("bench.live-ingest.replay")
		defer tr.end(root)
		var inCall time.Duration
		for _, tick := range ticks {
			for off := 0; off < perTick; off += frame {
				id := tr.begin("stream.Pipeline.Ingest")
				start := time.Now()
				pipe.Ingest(tick[off : off+frame])
				inCall += time.Since(start)
				tr.end(id)
			}
			for queued(pipe) {
				time.Sleep(20 * time.Microsecond)
			}
		}
		if !probe {
			return inCall, nil
		}
		if st := pipe.Snapshot().Ingest; st.Dropped+st.Late+st.Rejected != 0 {
			return 0, fmt.Errorf("paced in-process ingest lost samples: %+v", st)
		}
		res.set("stream.ingest_ns_per_sample", float64(inCall)/samples, int(samples))
		v, err := medianMS(tr, "stream.Pipeline.Snapshot", func() error {
			_ = pipe.Snapshot()
			return nil
		})
		if err != nil {
			return 0, err
		}
		res.set("stream.snapshot_us", v*usPerMS, probeRepeats)
		handler := stream.NewHandler(pipe, stream.ServeConfig{})
		v, err = medianMS(tr, "stream.handler.ServeHTTP", func() error {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/live/rollup?group=cabinet", nil))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("in-process live rollup: status %d", rec.Code)
			}
			return nil
		})
		res.set("stream.http_rollup_ms", v, probeRepeats)
		return inCall, err
	}
	untraced, err := replay(nil, false)
	if err != nil {
		return err
	}
	traced, err := replay(tr, true)
	if err != nil {
		return err
	}
	res.set("bench.trace_overhead_share", overhead(untraced, traced), 0)

	// Drain: queues deep enough to hold the whole feed, so Ingest never
	// drops and Close pays for all the coarsening and operator work.
	pipe, err := stream.NewPipeline(stream.Config{Nodes: feed.nodes, QueueDepth: 4*len(ticks) + 8})
	if err != nil {
		return err
	}
	start := time.Now()
	tr.in("bench.live-ingest.drain", func() {
		for _, tick := range ticks {
			for off := 0; off < perTick; off += frame {
				pipe.Ingest(tick[off : off+frame])
			}
		}
		tr.in("stream.Pipeline.Close", pipe.Close)
	})
	res.set("stream.drain_ns_per_sample", float64(time.Since(start))/samples, int(samples))
	if st := pipe.Snapshot().Ingest; st.Dropped != 0 {
		return fmt.Errorf("in-process drain dropped %d samples", st.Dropped)
	}
	return nil
}

// queued reports whether any shard queue of the pipeline still holds a
// batch.
func queued(p *stream.Pipeline) bool {
	for _, sh := range p.Health().Shards {
		if sh.QueueLen > 0 {
			return true
		}
	}
	return false
}
