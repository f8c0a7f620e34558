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
	table // the watermark, the closed end and advance are shared with the code under test
	chans map[uint32]*windowCoarsener
}

func (s *mapTable) fold(batch []telemetry.Sample, step int64) (maxT, late int64) {
	maxT = math.MinInt64
	for _, smp := range batch {
		maxT = max(maxT, smp.T)
		ws := smp.T - tsagg.FloorMod(smp.T, step)
		if ws+step <= s.closed {
			late++
			continue
		}
		key := uint32(smp.Node)<<8 | uint32(smp.Metric)
		if s.chans[key] == nil {
			s.chans[key] = &windowCoarsener{}
		}
		s.chans[key].Add(ws, smp.Value)
	}
	return maxT, late
}

func (s *mapTable) collect(end, step int64) []window {
	s.closed = end
	keys := make([]uint32, 0, len(s.chans))
	for key := range s.chans {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	wins := map[int64]*window{}
	var starts []int64
	for _, key := range keys {
		node, metric := int32(key>>8), telemetry.Metric(key&0xff)
		s.chans[key].CloseThrough(end, step, func(ws tsagg.WindowStat) {
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
// of nodes whose first sample names a window the table has long closed —
// whose fate depends on how the feed is cut into batches, so end-to-end
// comparisons leave them out.
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
					wins = dense.collect(dense.watermark, step, wins)
					sameWindows(t, "collect", wins, oracle.collect(oracle.watermark, step))
				}
			}
			sameWindows(t, "flush", dense.collect(math.MaxInt64, step, wins), oracle.collect(math.MaxInt64, step))
			if late == 0 || collects == 0 {
				t.Fatalf("nodes %d seed %d: feed exercised nothing (%d late, %d collects)", nodes, seed, late, collects)
			}
		}
	}
}

// TestLateActivatedChannelObeysTheBound: a channel whose first sample
// names a window the pipeline finalized long ago meets the same lateness
// bound as every other channel — the sample is late, and no frame carries
// it.
func TestLateActivatedChannelObeysTheBound(t *testing.T) {
	p := mustPipeline(t, Config{Nodes: 2})
	for k := int64(0); k <= 100; k += 10 {
		p.Ingest([]telemetry.Sample{powerSample(0, k, 100)})
	}
	p.Ingest([]telemetry.Sample{powerSample(1, 12, 7)}) // node 1's first sample, window 10
	p.Close()
	snap := p.Snapshot()
	if snap.Ingest.Late != 1 {
		t.Errorf("late-activated channel: late %d, want 1", snap.Ingest.Late)
	}
	for _, w := range snap.Rollup.Recent {
		if w.Observed != 1 || w.FleetW != 100 {
			t.Errorf("frame %d: observed %d, fleet %v W, want node 0 alone at 100 W", w.T, w.Observed, w.FleetW)
		}
	}
}

// TestSilentWindowClosedBeforeItsFrameIsLate: node 0 sends t=0..9, then
// t=30, which closes the table through 25 while only frame 0 has gone
// out. Window 10 is silent, so its empty frame is applied only when the
// next window arrives. Node 1's first sample, at t=15, names that closed
// window: it is late, and frame 10 stays empty.
func TestSilentWindowClosedBeforeItsFrameIsLate(t *testing.T) {
	p := mustPipeline(t, Config{Nodes: 2})
	for k := int64(0); k < 10; k++ {
		p.Ingest([]telemetry.Sample{powerSample(0, k, 100)})
	}
	p.Ingest([]telemetry.Sample{powerSample(0, 30, 100)})
	p.Ingest([]telemetry.Sample{powerSample(1, 15, 7)})
	p.Close()
	snap := p.Snapshot()
	if snap.Ingest.Late != 1 {
		t.Errorf("late = %d, want 1", snap.Ingest.Late)
	}
	r := snap.Rollup.Recent
	if len(r) != 4 || r[1].T != 10 {
		t.Fatalf("frames %+v, want 0, 10, 20, 30", r)
	}
	if r[1].Observed != 0 || !math.IsNaN(r[1].FleetW) {
		t.Errorf("frame 10: observed %d, fleet %v W, want an empty frame", r[1].Observed, r[1].FleetW)
	}
}

// TestTableCountsSamplesBehindTheClosedEndLate: once collect has closed
// the table through an end, a sample for a window ending at or before it
// is late, and one for a window still open is added.
func TestTableCountsSamplesBehindTheClosedEndLate(t *testing.T) {
	tab := newTable(1)
	if _, late := tab.fold([]telemetry.Sample{powerSample(0, 5, 5), powerSample(0, 25, 25), powerSample(0, 12, 12)}, 10); late != 0 {
		t.Fatalf("late %d before any collect, want 0", late)
	}
	wins := tab.collect(20, 10, nil)
	if len(wins) != 2 || wins[0].start != 0 || wins[1].start != 10 || wins[1].power[0].stat.Mean != 12 {
		t.Fatalf("collect through 20: %+v, want windows 0 and 10 (the straggler alone)", wins)
	}
	if _, late := tab.fold([]telemetry.Sample{powerSample(0, 3, 3), powerSample(0, 14, 14)}, 10); late != 2 {
		t.Errorf("samples in closed windows: late %d, want 2", late)
	}
	if _, late := tab.fold([]telemetry.Sample{powerSample(0, 21, 21)}, 10); late != 0 {
		t.Errorf("sample in the open window: late %d, want 0", late)
	}
	wins = tab.collect(math.MaxInt64, 10, wins)
	if len(wins) != 1 || wins[0].start != 20 || wins[0].power[0].stat.Count != 2 {
		t.Fatalf("flush: %+v, want window 20 with 2 samples", wins)
	}
}

// TestLateJoiningBacklogIsLateAndAllocatesNothing: a table closed through
// 390 (node 0 has sent t=0..400) receives node 1's first 300 samples, t=0..299. Every one is late,
// and the channel's open list stays empty — the lateness/step+2 bound on
// windowCoarsener.Add's growth holds for a channel first seen late too.
func TestLateJoiningBacklogIsLateAndAllocatesNothing(t *testing.T) {
	const step, lateness = 10, 5
	tab := newTable(2)
	var wins []window
	for k := int64(0); k <= 400; k++ {
		maxT, _ := tab.fold([]telemetry.Sample{powerSample(0, k, 100)}, step)
		if tab.advance(maxT, step, lateness) {
			wins = tab.collect(tab.watermark, step, wins)
		}
	}
	if tab.closed != 390 {
		t.Fatalf("table closed through %d, want 390", tab.closed)
	}
	backlog := make([]telemetry.Sample, 300)
	for k := range backlog {
		backlog[k] = powerSample(1, int64(k), 7)
	}
	var late int64
	if allocs := testing.AllocsPerRun(3, func() { _, late = tab.fold(backlog, step) }); allocs != 0 {
		t.Errorf("folding the backlog allocated %.0f times, want 0", allocs)
	}
	if late != 300 {
		t.Errorf("backlog late %d, want 300", late)
	}
	if open := tab.chans[1*int(telemetry.NumMetrics)+int(telemetry.MetricInputPower)].open; len(open) != 0 {
		t.Errorf("node 1 holds %d open windows, want 0", len(open))
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
