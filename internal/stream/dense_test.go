package stream

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/tsagg"
)

// mapTable is the channel table the dense one replaced, kept as the
// test-only oracle: a map keyed node<<8|metric whose keys are sorted at
// every collect, windows gathered in a map and sorted again.
type mapTable struct {
	table // the watermark and advance are shared with the code under test
	chans map[uint32]*windowCoarsener
}

func (s *mapTable) fold(batch []telemetry.Sample, step int64) (maxT, late int64) {
	maxT = math.MinInt64
	for _, smp := range batch {
		maxT = max(maxT, smp.T)
		key := uint32(smp.Node)<<8 | uint32(smp.Metric)
		if s.chans[key] == nil {
			s.chans[key] = newWindowCoarsener(step)
		}
		if !s.chans[key].Add(smp.T, smp.Value) {
			late++
		}
	}
	return maxT, late
}

func (s *mapTable) collect(end int64) []window {
	keys := make([]uint32, 0, len(s.chans))
	for key := range s.chans {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	wins := map[int64]*window{}
	var starts []int64
	for _, key := range keys {
		node, metric := int32(key>>8), telemetry.Metric(key&0xff)
		s.chans[key].CloseThrough(end, func(ws tsagg.WindowStat) {
			w := wins[ws.T]
			if w == nil {
				w = &window{start: ws.T}
				wins[ws.T] = w
				starts = append(starts, ws.T)
			}
			w.chanWindows++
			switch {
			case metric == telemetry.MetricInputPower:
				w.power = append(w.power, nodeStat{node: node, stat: ws})
			case metric >= telemetry.MetricGPU0CoreTemp && metric <= telemetry.MetricGPU5CoreTemp:
				if !math.IsNaN(ws.Mean) {
					w.bands[core.TempBandOf(ws.Mean)]++
				}
			}
		})
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	out := make([]window, 0, len(starts))
	for _, t := range starts {
		out = append(out, *wins[t])
	}
	return out
}

// sameWindows compares two collects bit for bit, including the node order
// of each window's power entries.
func sameWindows(t *testing.T, where string, got, want []window) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, oracle %d", where, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.start != w.start || g.chanWindows != w.chanWindows || g.bands != w.bands || len(g.power) != len(w.power) {
			t.Fatalf("%s window %d: start %d chan %d bands %v power %d, oracle start %d chan %d bands %v power %d",
				where, i, g.start, g.chanWindows, g.bands, len(g.power), w.start, w.chanWindows, w.bands, len(w.power))
		}
		for j := range w.power {
			a, b := g.power[j], w.power[j]
			if a.node != b.node || a.stat.T != b.stat.T || a.stat.Count != b.stat.Count ||
				math.Float64bits(a.stat.Min) != math.Float64bits(b.stat.Min) ||
				math.Float64bits(a.stat.Max) != math.Float64bits(b.stat.Max) ||
				math.Float64bits(a.stat.Mean) != math.Float64bits(b.stat.Mean) ||
				math.Float64bits(a.stat.Std) != math.Float64bits(b.stat.Std) {
				t.Fatalf("%s window %d power %d: %+v, oracle %+v", where, i, j, a, b)
			}
		}
	}
}

// seededFeed is a shuffled live feed with per-sample jitter inside the
// lateness bound and NaN temperatures. With hazards it adds what the
// lateness rule must handle — stragglers far beyond the bound, and a block
// of nodes whose first sample arrives only after the pipeline's cursor has
// passed the window it names — whose fate depends on how the feed is cut
// into batches, so end-to-end comparisons leave them out.
func seededFeed(seed int64, nodes, seconds int, hazards bool) [][]telemetry.Sample {
	rng := rand.New(rand.NewSource(seed))
	lateJoin := nodes // nodes above it stay silent for the first half
	if hazards {
		lateJoin = nodes - 1 - nodes/5
	}
	var ticks [][]telemetry.Sample
	for k := 0; k < seconds; k++ {
		var tick []telemetry.Sample
		for n := 0; n < nodes; n++ {
			if n > lateJoin && k < seconds/2 {
				continue
			}
			t := int64(k) - int64(rng.Intn(4)) // out of order, inside the 5 s bound
			switch {
			case hazards && rng.Intn(40) == 0:
				t -= 30 // beyond the bound
			case n > lateJoin && k == seconds/2:
				t = int64(k) - 25 // a new channel naming a window long closed
			}
			if t < 0 {
				t = 0
			}
			tick = append(tick, telemetry.Sample{Node: topology.NodeID(n), Metric: telemetry.MetricInputPower,
				T: t, Value: 500 + 1000*rng.Float64()})
			for g := 0; g < 6; g += 1 + rng.Intn(3) {
				v := 25 + 60*rng.Float64()
				if rng.Intn(50) == 0 {
					v = math.NaN()
				}
				tick = append(tick, telemetry.Sample{Node: topology.NodeID(n),
					Metric: telemetry.GPUCoreTempMetric(topology.GPUSlot(g)), T: t, Value: v})
			}
		}
		rng.Shuffle(len(tick), func(i, j int) { tick[i], tick[j] = tick[j], tick[i] })
		ticks = append(ticks, tick)
	}
	return ticks
}

// TestDenseTableMatchesMapOracle drives the dense channel table and the
// map it replaced through the same batches and demands identical collects
// — every window, every power entry in order, every band count — and
// identical late counts and watermarks.
func TestDenseTableMatchesMapOracle(t *testing.T) {
	const step, lateness = 10, 5
	for _, nodes := range []int{7, 10, 37, 2} {
		for seed := int64(1); seed <= 3; seed++ {
			dense := newTable(nodes)
			oracle := &mapTable{table: newTable(0), chans: map[uint32]*windowCoarsener{}}
			var wins []window
			var late, collects int64
			for k, tick := range seededFeed(seed, nodes, 90, true) {
				maxD, lateD := dense.fold(tick, step)
				maxM, lateM := oracle.fold(tick, step)
				late += lateD
				if maxD != maxM || lateD != lateM {
					t.Fatalf("tick %d: fold = (%d, %d late), oracle (%d, %d late)", k, maxD, lateD, maxM, lateM)
				}
				crossD, crossM := dense.advance(maxD, step, lateness), oracle.advance(maxM, step, lateness)
				if crossD != crossM || dense.watermark != oracle.watermark {
					t.Fatalf("tick %d: boundary crossed %v at wm %d, oracle %v at %d", k, crossD, dense.watermark, crossM, oracle.watermark)
				}
				if crossD {
					collects++
					wins = dense.collect(dense.watermark, wins)
					sameWindows(t, "collect", wins, oracle.collect(oracle.watermark))
				}
			}
			sameWindows(t, "flush", dense.collect(math.MaxInt64, wins), oracle.collect(math.MaxInt64))
			if late == 0 || collects == 0 {
				t.Fatalf("nodes %d seed %d: feed exercised nothing (%d late, %d collects)", nodes, seed, late, collects)
			}
		}
	}
}

// TestLateActivatedChannelIsAcceptedNotLate: a channel whose first sample
// names a window the pipeline finalized long ago is a new channel, not a
// late sample — it is folded, collected, and counted merge_late because its
// frame already went out. The dense table visits that channel's slot at
// every collect before the sample arrives; closing the unused slot would
// flip the count to late.
func TestLateActivatedChannelIsAcceptedNotLate(t *testing.T) {
	p := mustPipeline(t, Config{Nodes: 2})
	for k := int64(0); k <= 100; k += 10 {
		p.Ingest([]telemetry.Sample{powerSample(0, k, 100)})
		for queued(p) { // one batch at a time, so every boundary is collected
			runtime.Gosched()
		}
	}
	p.Ingest([]telemetry.Sample{powerSample(1, 12, 7)}) // node 1's first sample, window 10
	p.Close()
	st := p.Snapshot().Ingest
	if st.Late != 0 || st.MergeLate != 1 {
		t.Errorf("late-activated channel: late %d merge_late %d, want 0 and 1", st.Late, st.MergeLate)
	}
}

// queued reports whether the queue still holds a batch (without
// allocating: the allocation guard spins on it).
func queued(p *Pipeline) bool { return len(p.queue) > 0 }

// TestIngestBorrowsItsBatch: Ingest copies, so a caller that overwrites its
// slice the moment Ingest returns changes nothing downstream.
func TestIngestBorrowsItsBatch(t *testing.T) {
	run := func(scribble bool) *Snapshot {
		p := mustPipeline(t, Config{Nodes: 10, QueueDepth: 4096})
		for _, tick := range seededFeed(5, 10, 60, false) {
			buf := append([]telemetry.Sample(nil), tick...)
			p.Ingest(buf)
			if scribble {
				for i := range buf {
					buf[i] = telemetry.Sample{Node: 9, Metric: telemetry.MetricInputPower, T: 1 << 40, Value: -1}
				}
			}
		}
		p.Close()
		return p.Snapshot()
	}
	sameSnapshot(t, run(true), run(false))
}

// sameSnapshot compares what a feed produced: counters and every rollup
// window, bit for bit.
func sameSnapshot(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.Ingest != want.Ingest {
		t.Errorf("counters %+v, want %+v", got.Ingest, want.Ingest)
	}
	if len(got.Rollup.Recent) != len(want.Rollup.Recent) || len(want.Rollup.Recent) == 0 {
		t.Fatalf("%d rollup windows, want %d (non-zero)", len(got.Rollup.Recent), len(want.Rollup.Recent))
	}
	for i, w := range want.Rollup.Recent {
		g := got.Rollup.Recent[i]
		if g.T != w.T || g.Observed != w.Observed || math.Float64bits(g.FleetW) != math.Float64bits(w.FleetW) {
			t.Fatalf("window %d: %+v, want %+v", i, g, w)
		}
	}
	if got.Bands.Current != want.Bands.Current || got.Bands.Windows != want.Bands.Windows {
		t.Errorf("bands %+v, want %+v", got.Bands, want.Bands)
	}
}

// TestServerLendsItsBatchToThePipeline runs the real transport into the
// pipeline through a sink that scribbles over the server's decode buffer as
// soon as Ingest has returned — the borrowed-batch contract end to end.
func TestServerLendsItsBatchToThePipeline(t *testing.T) {
	feed := seededFeed(9, 12, 40, false)
	run := func(scribble bool) *Snapshot {
		p := mustPipeline(t, Config{Nodes: 12, QueueDepth: 4096})
		srv, err := telemetry.NewServer("127.0.0.1:0", func(batch []telemetry.Sample) {
			p.Ingest(batch)
			if scribble {
				for i := range batch {
					batch[i] = telemetry.Sample{Node: 3, Metric: telemetry.MetricInputPower, T: 1 << 40, Value: -1}
				}
			}
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := telemetry.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		exp.BatchSize = 50 // frames of different sizes reuse one buffer
		var sent int64
		for _, tick := range feed {
			for _, smp := range tick {
				if err := exp.Push(smp); err != nil {
					t.Fatal(err)
				}
			}
			sent += int64(len(tick))
		}
		if err := exp.Close(); err != nil {
			t.Fatal(err)
		}
		for p.received.Load() < sent {
			runtime.Gosched()
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		p.Close()
		return p.Snapshot()
	}
	sameSnapshot(t, run(true), run(false))
}

// TestSteadyStateIngestAllocatesPerWindowNotPerSample is the guard on the
// 0.8 MB per event-second the scatter, the channel map and the collect used
// to allocate: after warm-up, an event-second through Ingest and the fold
// goroutine costs at most 8 allocations, whatever its sample count.
func TestSteadyStateIngestAllocatesPerWindowNotPerSample(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector sync.Pool drops a quarter of what is put back")
			}
		}
	}
	const nodes, frames = 256, 4
	p := mustPipeline(t, Config{Nodes: nodes})
	defer p.Close()
	tick := make([]telemetry.Sample, 0, nodes*7)
	second := func(k int64) {
		tick = tick[:0]
		for n := 0; n < nodes; n++ {
			tick = append(tick, powerSample(topology.NodeID(n), k, float64(1000+n)))
			for g := topology.GPUSlot(0); g < 6; g++ {
				tick = append(tick, telemetry.Sample{Node: topology.NodeID(n),
					Metric: telemetry.GPUCoreTempMetric(g), T: k, Value: float64(40 + n%30)})
			}
		}
		for off := 0; off < len(tick); off += len(tick) / frames {
			p.Ingest(tick[off : off+len(tick)/frames])
		}
		for queued(p) {
			runtime.Gosched()
		}
	}
	k := int64(0)
	for ; k < 100; k++ { // warm-up: pooled batches, open-window lists, rings
		second(k)
	}
	const seconds = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for ; k < 100+seconds; k++ {
		second(k)
	}
	runtime.ReadMemStats(&after)
	if st := p.Health().Ingest; st.Dropped+st.Late+st.Rejected != 0 {
		t.Fatalf("paced feed lost samples: %+v", st)
	}
	if per := float64(after.Mallocs-before.Mallocs) / seconds; per > 8 {
		t.Errorf("%.1f allocations per event-second of %d samples, want <= 8", per, len(tick))
	}
}
