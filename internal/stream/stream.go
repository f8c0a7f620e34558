// Package stream is the online streaming-analysis plane of the
// reproduction: it consumes telemetry.Sample batches as they arrive from
// the out-of-band transport and maintains, incrementally, the statistics
// the paper computes over finished runs — per-channel windowed coarsening
// (§3), fleet/cabinet/MSB power rollups, edge detection (§4), thermal-band
// occupancy (§2), and early-warning lift statistics over the failure feed
// (§6.1). The last three are core's own analyses, core.EdgeDetector,
// core.BandOccupancy and core.EarlyWarningMonitor, which the batch entry
// points fold finished runs through; this package adds the rings, the
// locking and the snapshot copies around them.
//
// Architecture: Ingest validates each batch and copies it onto one bounded
// queue — a full queue drops the batch and counts it rather than ever
// stalling the out-of-band path. One goroutine drains the queue: it folds
// each sample into a dense table of per-channel event-time coarseners and
// advances the one watermark (the newest sample time less latenessSec;
// a sample for a window the watermark has finalized is dropped and
// counted). At each window boundary it collects the finalized windows and
// applies them as system-wide frames to the fixed operator chain (rollup,
// edges, bands), so every operator observes windows in strictly ascending
// event time — which is what lets the streaming results match the offline
// batch analyses bit for bit (see parity_test.go). The path is allocation-free in steady state:
// queued batches come from a pool and go back to it once folded, and the
// collected windows reuse their buffers.
//
// Snapshot returns a consistent point-in-time copy of all operator state
// under one lock acquisition.
package stream

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/telemetry"
	"repro/internal/tsagg"
	"repro/internal/units"
)

// Config sizes a Pipeline.
type Config struct {
	// Nodes is the system size; node IDs at or beyond it are rejected.
	Nodes int
	// StartTime anchors the window grid and the observation span. Samples
	// before it are rejected. The first frame starts at the first window
	// with data at or after StartTime.
	StartTime int64
	// QueueDepth bounds the ingest queue in batches (<= 0: 256). A full
	// queue drops, never blocks.
	QueueDepth int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	return c
}

// The pipeline's window grid and out-of-order tolerance are the paper's
// (§3): 10 s coarsening windows, and a sample more than the 5 s maximum
// telemetry timestamp delay behind the newest timestamp is dropped.
const (
	stepSec     int64 = units.CoarsenWindowSec
	latenessSec int64 = units.MaxTimestampDelaySec
)

// ringDepth is how many windows the rollup ring and how many edges the
// edge ring retain, and so the most windows one rollup reply may carry. It
// is also Ingest's horizon: a sample more than ringDepth windows ahead of
// the watermark is rejected, which bounds the empty frames one sample can
// make the pipeline apply.
const ringDepth = 4096

// beyondReason is health's reason once the horizon has rejected a sample.
var beyondReason = fmt.Sprintf("samples more than %d windows ahead of the watermark were rejected", ringDepth)

// nodeStat is one node's finalized power window.
type nodeStat struct {
	node int32
	stat tsagg.WindowStat
}

// window is one finalized event-time window as collect gathers it from
// the channel table.
type window struct {
	start       int64
	power       []nodeStat // node ascending
	bands       [core.NumTempBands]int64
	chanWindows int64
}

// table is the fold goroutine's channel state.
type table struct {
	// chans is the dense channel table: the coarsener of (node, metric) is
	// chans[node*NumMetrics + metric], so walking it in index order visits
	// channels node ascending, metric ascending. A slot with a zero step
	// has never seen a sample and is skipped everywhere, exactly as an
	// absent key of the map this replaced.
	chans []windowCoarsener
	// watermark = newest folded sample time − lateness; lastBoundary is
	// the highest window boundary already scanned for finalization.
	watermark    int64
	lastBoundary int64
}

func newTable(nodes int) table {
	return table{
		chans:        make([]windowCoarsener, nodes*int(telemetry.NumMetrics)),
		watermark:    math.MinInt64,
		lastBoundary: math.MinInt64,
	}
}

// fold adds one batch (every sample validated by Ingest) to the
// coarseners and returns the newest timestamp and how many samples fell
// behind the lateness bound.
//
//lint:allocfree
func (t *table) fold(batch []telemetry.Sample, step int64) (maxT, late int64) {
	maxT = math.MinInt64
	for i := range batch {
		smp := &batch[i]
		maxT = max(maxT, smp.T)
		c := &t.chans[int(smp.Node)*int(telemetry.NumMetrics)+int(smp.Metric)]
		if c.step == 0 {
			c.step, c.closedEnd = step, math.MinInt64
		}
		if !c.Add(smp.T, smp.Value) {
			late++
		}
	}
	return maxT, late
}

// advance raises the watermark to maxT − lateness and reports whether it
// crossed a window boundary: only then can anything new finalize, so only
// then is the table scanned.
func (t *table) advance(maxT, step, lateness int64) bool {
	if maxT == math.MinInt64 {
		return false // empty batch
	}
	if wm := maxT - lateness; wm > t.watermark {
		t.watermark = wm
	}
	b := alignWindow(t.watermark, step)
	if b <= t.lastBoundary {
		return false
	}
	t.lastBoundary = b
	return true
}

// collect finalizes every window closable at end and returns them in
// wins, ascending by start, reusing its buffers. Walking the table in
// index order visits channels node ascending, metric ascending, so the
// result, including the node order of each window's power entries, is
// fully deterministic.
func (t *table) collect(end int64, wins []window) []window {
	wins = wins[:0]
	const metrics = int(telemetry.NumMetrics)
	var node int32
	var metric telemetry.Metric
	emit := func(ws tsagg.WindowStat) {
		// Channels close their oldest window first and bounded lateness
		// keeps the list short, so the scan from the back ends at once.
		i := len(wins)
		for i > 0 && wins[i-1].start > ws.T {
			i--
		}
		if i == 0 || wins[i-1].start != ws.T {
			// Insert at i; the new window takes the buffer of the slot
			// the list grows into.
			n := len(wins)
			if n < cap(wins) {
				wins = wins[:n+1]
			} else {
				wins = append(wins, window{})
			}
			spare := wins[n].power[:0]
			copy(wins[i+1:], wins[i:n])
			wins[i] = window{start: ws.T, power: spare}
			i++
		}
		w := &wins[i-1]
		w.chanWindows++
		switch {
		case metric == telemetry.MetricInputPower:
			w.power = append(w.power, nodeStat{node: node, stat: ws})
		case metric >= telemetry.MetricGPU0CoreTemp && metric <= telemetry.MetricGPU5CoreTemp:
			if !math.IsNaN(ws.Mean) {
				w.bands[core.TempBandOf(ws.Mean)]++
			}
		}
	}
	for i := range t.chans {
		c := &t.chans[i]
		if c.step == 0 {
			// Never used. Closing it would raise its closedEnd and turn a
			// late-activated channel's first samples from accepted (and
			// counted merge_late) into late.
			continue
		}
		node, metric = int32(i/metrics), telemetry.Metric(i%metrics)
		c.CloseThrough(end, emit)
	}
	return wins
}

// Frame is one finalized event-time window of the whole system: every
// channel's window for one coarsening interval. The pipeline reuses a
// single Frame across applyFrame calls; operators must copy anything they
// keep.
type Frame struct {
	Start int64 // window start (unix seconds, grid-aligned)
	Step  int64 // window length in seconds
	// Observed counts the nodes with an input-power window this frame. A
	// frame with Observed == 0 is a telemetry gap: the grid slot exists
	// (so downstream NaN handling matches the offline series) but carries
	// no data.
	Observed int
	// NodePower holds the per-node input-power window statistics, indexed
	// by node ID; Count == 0 marks a node absent this window.
	NodePower []tsagg.WindowStat
	// BandGPUs counts GPU core-temperature channels per thermal band
	// (integer counts; core.TempBandOf of each channel's window mean).
	BandGPUs [core.NumTempBands]int64
}

// Pipeline is the live streaming-analysis plane. Create with NewPipeline;
// feed with Ingest (telemetry) and IngestEvents (failures); read with
// Snapshot; Close flushes every open window through the operators.
type Pipeline struct {
	cfg Config

	ingestMu sync.RWMutex // guards the queue against Close
	closed   atomic.Bool
	// queue carries pooled batches; the fold goroutine returns each to the
	// pool once folded, and closes done when it has flushed.
	queue   chan *[]telemetry.Sample
	batches sync.Pool // *[]telemetry.Sample, emptied, capacity kept
	done    chan struct{}

	// The fold goroutine's own state: the channel table, the windows of
	// the last collect, and the start of the next frame to apply.
	tab  table
	wins []window
	next int64

	// Counters (atomic: read by Snapshot and health without the lock).
	received    atomic.Int64 // samples presented to Ingest
	dropped     atomic.Int64 // samples dropped on a full queue
	rejected    atomic.Int64 // samples with out-of-range node, metric or time
	beyond      atomic.Int64 // the part of rejected beyond the horizon
	newest      atomic.Int64 // newest timestamp Ingest has accepted, queued or dropped
	late        atomic.Int64 // samples behind the lateness bound
	mergeLate   atomic.Int64 // windows collected after their frame was applied
	events      atomic.Int64 // failure events observed
	frames      atomic.Int64 // frames applied to the operator chain
	chanWindows atomic.Int64 // per-channel windows finalized
	conns       atomic.Int64 // ingest connections the transport dropped
	wmark       atomic.Int64 // watermark at the last window boundary

	// mu guards the operator chain: applyFrame runs it under mu, so
	// Snapshot sees every operator at the same frame boundary.
	mu sync.Mutex
	// lastWindow is the start of the newest applied frame. Written under
	// mu, so Snapshot reads it consistently with the operators; atomic so
	// Health reads it without waiting for the operator chain.
	lastWindow atomic.Int64
	anyFrame   bool // written by the fold goroutine only, under mu
	rollup     *Rollup
	edges      *Edges
	bands      *Bands
	warn       *core.EarlyWarningMonitor // fed by IngestEvents, not by frames
}

// NewPipeline validates cfg, applies defaults, and starts the fold
// goroutine.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("stream: non-positive node count %d", cfg.Nodes)
	}
	cfg = cfg.withDefaults()
	grid := alignWindow(cfg.StartTime, stepSec)
	p := &Pipeline{
		cfg:   cfg,
		queue: make(chan *[]telemetry.Sample, cfg.QueueDepth),
		done:  make(chan struct{}),
		tab:   newTable(cfg.Nodes),
		next:  grid,
	}
	p.batches.New = func() any { return new([]telemetry.Sample) }
	p.lastWindow.Store(grid - stepSec)
	p.wmark.Store(math.MinInt64)
	p.newest.Store(math.MinInt64)
	p.rollup = newRollup(cfg)
	p.edges = newEdges(cfg)
	p.bands = newBands(cfg)
	p.warn = core.NewEarlyWarningMonitor(units.SecondsPerHour)
	go p.run()
	return p, nil
}

// Ingest feeds one telemetry batch. It never blocks: the valid samples are
// copied into a pooled batch and enqueued with a non-blocking send, and a
// full queue drops the batch and counts it — the out-of-band path must not
// stall (paper §2). A sample is rejected when its node, metric or time is
// out of range, or when it lies beyond the horizon: more than ringDepth
// windows ahead of the watermark of the newest sample accepted before it.
// The horizon follows the order of Ingest calls, not how far the fold
// goroutine has got, so one connection's feed meets the same decisions
// every time. The caller's batch is only borrowed, so it may reuse its
// slice as soon as Ingest returns. A pooled batch belongs to Ingest until
// the send, then to the fold goroutine; a refused one goes straight back
// to the pool.
func (p *Pipeline) Ingest(batch []telemetry.Sample) {
	if len(batch) == 0 {
		return
	}
	p.received.Add(int64(len(batch)))
	if p.closed.Load() {
		p.dropped.Add(int64(len(batch)))
		return
	}
	grid := alignWindow(p.cfg.StartTime, stepSec)
	newest := p.newest.Load()
	top, end := newest, p.horizonEnd(newest)
	var beyond int64
	b := p.batches.Get().(*[]telemetry.Sample)
	for i := range batch {
		s := &batch[i]
		if int(s.Node) < 0 || int(s.Node) >= p.cfg.Nodes || s.Metric >= telemetry.NumMetrics || s.T < grid {
			continue
		}
		if s.T > end {
			beyond++
			continue
		}
		if s.T > top {
			top, end = s.T, p.horizonEnd(s.T)
		}
		*b = append(*b, *s)
	}
	for top > newest && !p.newest.CompareAndSwap(newest, top) {
		newest = p.newest.Load()
	}
	if rejected := len(batch) - len(*b); rejected > 0 {
		p.rejected.Add(int64(rejected))
	}
	if beyond > 0 {
		p.beyond.Add(beyond)
	}
	if len(*b) == 0 {
		p.recycle(b)
		return
	}
	p.ingestMu.RLock()
	defer p.ingestMu.RUnlock()
	if !p.closed.Load() {
		select {
		case p.queue <- b:
			return
		default:
		}
	}
	p.dropped.Add(int64(len(*b)))
	p.recycle(b)
}

// horizonEnd is the latest timestamp the horizon admits after a sample at
// newest: ringDepth windows past its watermark. Before the first sample
// (newest = math.MinInt64) there is no bound.
func (p *Pipeline) horizonEnd(newest int64) int64 {
	if newest == math.MinInt64 {
		return math.MaxInt64
	}
	horizon := ringDepth * stepSec
	if wm := newest - latenessSec; wm <= math.MaxInt64-horizon {
		return wm + horizon
	}
	return math.MaxInt64
}

// recycle empties a pooled batch and returns it to the pool.
func (p *Pipeline) recycle(b *[]telemetry.Sample) {
	*b = (*b)[:0]
	p.batches.Put(b)
}

// IngestEvents feeds failure events to the early-warning operator. The
// batch is sorted by time (stably, preserving log order on ties) before
// observation; across batches the caller must not go backwards in time
// further than the early-warning horizon cares about.
func (p *Pipeline) IngestEvents(evs []failures.Event) {
	if len(evs) == 0 {
		return
	}
	p.events.Add(int64(len(evs)))
	p.mu.Lock()
	defer p.mu.Unlock()
	p.warn.Observe(evs)
}

// run is the fold goroutine: it drains the queue, folds each batch into
// the channel table, and at each window boundary applies the finalized
// windows as frames. When the queue closes it flushes every open window
// and resolves the edge detector's pending durations.
func (p *Pipeline) run() {
	defer close(p.done)
	frame := &Frame{Step: stepSec, NodePower: make([]tsagg.WindowStat, p.cfg.Nodes)}
	for b := range p.queue {
		maxT, late := p.tab.fold(*b, stepSec)
		p.recycle(b)
		if late > 0 {
			p.late.Add(late)
		}
		if p.tab.advance(maxT, stepSec, latenessSec) {
			p.wmark.Store(p.tab.watermark)
			p.applyThrough(frame, p.tab.watermark)
		}
	}
	p.applyThrough(frame, math.MaxInt64)
	p.mu.Lock()
	p.edges.det.Flush()
	p.mu.Unlock()
}

// applyThrough collects every window that closes at or before end and
// applies it, and the empty frames of the grid between, in ascending
// order. A window whose frame already went out belongs to a channel first
// seen after that frame: it is counted merge_late, not applied. Before the
// first frame the grid fast-forwards to the first data, so a live feed
// anchored far from StartTime does not emit years of empty frames.
func (p *Pipeline) applyThrough(frame *Frame, end int64) {
	p.wins = p.tab.collect(end, p.wins)
	for i := range p.wins {
		w := &p.wins[i]
		if w.start < p.next {
			p.mergeLate.Add(w.chanWindows)
			continue
		}
		if !p.anyFrame {
			p.next = w.start
		}
		for ; p.next < w.start; p.next += stepSec {
			p.applyFrame(frame, nil, p.next)
		}
		p.applyFrame(frame, w, w.start)
		p.next = w.start + stepSec
	}
}

// applyFrame builds the frame for window start from w (empty when w is
// nil) and applies the operator chain under the snapshot lock: the rollup,
// then the edge detector on the fleet sum the rollup just stored, then the
// bands.
//
//lint:detroot
func (p *Pipeline) applyFrame(frame *Frame, w *window, start int64) {
	clear(frame.NodePower)
	frame.BandGPUs = [core.NumTempBands]int64{}
	frame.Start = start
	frame.Observed = 0
	if w != nil {
		for _, ns := range w.power {
			if ns.stat.Count > 0 {
				frame.NodePower[ns.node] = ns.stat
				frame.Observed++
			}
		}
		frame.BandGPUs = w.bands
		p.chanWindows.Add(w.chanWindows)
	}
	p.mu.Lock()
	p.edges.det.Push(start, p.rollup.Apply(frame))
	p.bands.Apply(frame)
	p.lastWindow.Store(start)
	p.anyFrame = true
	p.mu.Unlock()
	p.frames.Add(1)
}

// Close stops ingestion, flushes every open window through the operator
// chain, and waits for the fold goroutine. Idempotent. Samples offered to
// Ingest after Close are counted as dropped.
func (p *Pipeline) Close() {
	p.ingestMu.Lock()
	if !p.closed.Swap(true) {
		close(p.queue)
	}
	p.ingestMu.Unlock()
	<-p.done
}

// IngestStats is the counter block of a snapshot.
type IngestStats struct {
	Received       int64 // samples presented to Ingest
	Dropped        int64 // dropped on full queues or after Close
	Rejected       int64 // out-of-range node, pre-StartTime or beyond the horizon
	Late           int64 // behind the lateness bound
	MergeLate      int64 // channel windows collected after their frame was applied
	Events         int64 // failure events observed
	Frames         int64 // frames applied to the operator chain
	ChannelWindows int64 // per-channel windows finalized
	DroppedConns   int64 // ingest connections dropped by the transport
}

// QueueStat reports the ingest queue's occupancy in batches.
type QueueStat struct {
	QueueLen int
	QueueCap int
}

// Snapshot is a consistent point-in-time view of the pipeline.
type Snapshot struct {
	Ingest IngestStats
	// WatermarkT is the event-time watermark as of the last window
	// boundary; math.MinInt64 before any.
	WatermarkT int64
	// LastWindowT is the start of the newest applied frame.
	LastWindowT int64
	// SpanSec is the finalized observation span from StartTime.
	SpanSec      int64
	Rollup       RollupSnapshot
	Edges        []core.Edge
	EdgesTotal   int64
	EdgeThreshW  float64
	Bands        BandsSnapshot
	EarlyWarning []core.PrecursorStats
}

// Snapshot returns a consistent copy of all operator state: every
// included result reflects the same final applied frame.
func (p *Pipeline) Snapshot() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotLocked()
}

func (p *Pipeline) snapshotLocked() *Snapshot {
	s := &Snapshot{
		Ingest:      p.ingestStats(),
		WatermarkT:  p.wmark.Load(),
		LastWindowT: p.lastWindow.Load(),
		SpanSec:     p.spanLocked(),
		Rollup:      p.rollup.snapshotLocked(0),
		EdgeThreshW: p.edges.det.Threshold(),
		Bands:       p.bands.snapshotLocked(),
	}
	s.Edges, s.EdgesTotal = p.edges.snapshotLocked(0)
	s.EarlyWarning = p.warn.Summary(p.cfg.Nodes, s.SpanSec)
	return s
}

func (p *Pipeline) ingestStats() IngestStats {
	return IngestStats{
		Received:       p.received.Load(),
		Dropped:        p.dropped.Load(),
		Rejected:       p.rejected.Load(),
		Late:           p.late.Load(),
		MergeLate:      p.mergeLate.Load(),
		Events:         p.events.Load(),
		Frames:         p.frames.Load(),
		ChannelWindows: p.chanWindows.Load(),
		DroppedConns:   p.conns.Load(),
	}
}

// DroppedConns is the counter the ingest transport adds each connection it
// drops to (telemetry.NewServer); health reports it as dropped_conns.
func (p *Pipeline) DroppedConns() *atomic.Int64 { return &p.conns }

// spanLocked is the finalized observation span: frames applied × step.
func (p *Pipeline) spanLocked() int64 {
	if !p.anyFrame {
		return 0
	}
	return p.lastWindow.Load() + stepSec - alignWindow(p.cfg.StartTime, stepSec)
}

// RollupSnapshot copies the rollup state with up to limit recent windows
// (limit <= 0: all retained).
func (p *Pipeline) RollupSnapshot(limit int) RollupSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rollup.snapshotLocked(limit)
}

// EdgesSnapshot copies up to limit recent edges (limit <= 0: all
// retained) plus the lifetime edge count and the detection threshold.
func (p *Pipeline) EdgesSnapshot(limit int) (edges []core.Edge, total int64, thresholdW float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	edges, total = p.edges.snapshotLocked(limit)
	return edges, total, p.edges.det.Threshold()
}

// BandsSnapshot copies the thermal-band state.
func (p *Pipeline) BandsSnapshot() BandsSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bands.snapshotLocked()
}

// EarlyWarningSnapshot reduces the live early-warning state over the
// finalized span.
func (p *Pipeline) EarlyWarningSnapshot() []core.PrecursorStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.warn.Summary(p.cfg.Nodes, p.spanLocked())
}

// HealthState summarizes liveness for /api/v1/live/health.
type HealthState struct {
	// Status is "ok" until any sample has been dropped or lost, then
	// "degraded" — sticky, because the counters never reset.
	Status      string
	Reasons     []string
	Ingest      IngestStats
	WatermarkT  int64
	LastWindowT int64
	// Shards holds the ingest queue's occupancy, as the one entry of the
	// health reply's `shards` list.
	Shards []QueueStat
}

// Health reports ingest health from atomics and queue lengths only: it
// takes no lock, so it answers while the operator chain is busy or stuck.
func (p *Pipeline) Health() HealthState {
	st := p.ingestStats()
	h := HealthState{
		Status:      "ok",
		Ingest:      st,
		WatermarkT:  p.wmark.Load(),
		LastWindowT: p.lastWindow.Load(),
		Shards:      []QueueStat{{QueueLen: len(p.queue), QueueCap: cap(p.queue)}},
	}
	if st.Dropped > 0 {
		h.Reasons = append(h.Reasons, "ingest queue overflow dropped samples")
	}
	if st.Late > 0 {
		h.Reasons = append(h.Reasons, "samples beyond the lateness bound were dropped")
	}
	if p.beyond.Load() > 0 {
		h.Reasons = append(h.Reasons, beyondReason)
	}
	if st.MergeLate > 0 {
		h.Reasons = append(h.Reasons, "windows of a channel first seen after their frames were applied")
	}
	if st.DroppedConns > 0 {
		h.Reasons = append(h.Reasons, "ingest connections dropped for bad frames or stalls")
	}
	if len(h.Reasons) > 0 {
		h.Status = "degraded"
	}
	return h
}
