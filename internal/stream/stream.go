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
// Architecture: Ingest splits each batch across per-shard goroutines over
// bounded queues — a full queue drops the batch and counts it rather than
// ever stalling the out-of-band path. Each shard coarsens its channels
// with event-time windows and a bounded-lateness watermark (samples more
// than LatenessSec behind a shard's newest timestamp are dropped and
// counted). The path is allocation-free in steady state: per-shard batches
// come from a pool and go back to it once folded, and a shard's channels
// are a dense table of coarsener values, not a map. A single merge
// goroutine orders the shards' finalized windows by the minimum shard
// watermark into system-wide frames and applies the operator chain to
// each, so every operator observes windows in strictly ascending event
// time — which is what lets the streaming results match the offline batch
// analyses bit for bit (see parity_test.go).
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
	// StepSec is the coarsening window (<= 0: the paper's 10 s).
	StepSec int64
	// Shards is the fan-in parallelism (<= 0: one shard per 288 nodes,
	// the paper's collection-tier ratio).
	Shards int
	// QueueDepth bounds each shard's ingest queue in batches (<= 0: 256).
	// A full queue drops, never blocks.
	QueueDepth int
	// LatenessSec bounds out-of-order tolerance: samples more than this
	// behind their shard's newest timestamp are dropped (<= 0: the
	// paper's 5 s maximum telemetry timestamp delay).
	LatenessSec int64
	// Extra appends additional operators to the built-in chain.
	Extra []Operator
}

func (c Config) withDefaults() Config {
	if c.StepSec <= 0 {
		c.StepSec = units.CoarsenWindowSec
	}
	if c.Shards <= 0 {
		c.Shards = (c.Nodes + units.FanInRatio - 1) / units.FanInRatio
		if c.Shards < 1 {
			c.Shards = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.LatenessSec <= 0 {
		c.LatenessSec = int64(units.MaxTimestampDelaySec)
	}
	return c
}

// ringDepth is how many windows the rollup ring and how many edges the
// edge ring retain, and so the most windows one rollup reply may carry.
const ringDepth = 4096

// nodeStat is one node's finalized power window inside a shard message.
type nodeStat struct {
	node int32
	stat tsagg.WindowStat
}

// shardWindow is one finalized window of one shard.
type shardWindow struct {
	start       int64
	power       []nodeStat
	bands       [core.NumTempBands]int64
	chanWindows int64
}

// mergeMsg carries a shard's finalized windows, ascending by start, and
// its watermark advance.
type mergeMsg struct {
	shard     int
	watermark int64
	windows   []shardWindow
}

// windowAt returns the message's window starting at t, inserting it in
// ascending order when absent. Bounded lateness keeps the list at a
// handful of entries and channels close their oldest window first, so the
// scan from the back ends at once. nodes sizes a new window's power list.
func (m *mergeMsg) windowAt(t int64, nodes int) *shardWindow {
	i := len(m.windows)
	for i > 0 && m.windows[i-1].start > t {
		i--
	}
	if i > 0 && m.windows[i-1].start == t {
		return &m.windows[i-1]
	}
	m.windows = append(m.windows, shardWindow{})
	copy(m.windows[i+1:], m.windows[i:])
	m.windows[i] = shardWindow{start: t, power: make([]nodeStat, 0, nodes)}
	return &m.windows[i]
}

// shard is one ingest partition: a bounded queue drained by a goroutine
// that owns the shard's part of the channel table.
type shard struct {
	id     int
	stride int // the pipeline's shard count: node n lives in shard n % stride
	// ch carries pooled batches; the shard goroutine returns each to the
	// pool once folded.
	ch chan *[]telemetry.Sample
	// chans is the dense channel table: the coarsener of (node, metric)
	// is chans[(node/stride)*NumMetrics + metric], so walking it in index
	// order visits channels node ascending, metric ascending. A slot with a
	// zero step has never seen a sample and is skipped everywhere, exactly
	// as an absent key of the map this replaced.
	chans []WindowCoarsener
	// watermark = newest sample time − lateness; lastBoundary is the
	// highest window boundary already scanned for finalization.
	watermark    int64
	lastBoundary int64
}

// Pipeline is the live streaming-analysis plane. Create with NewPipeline;
// feed with Ingest (telemetry) and IngestEvents (failures); read with
// Snapshot; Close flushes every open window through the operators.
type Pipeline struct {
	cfg Config

	ingestMu sync.RWMutex // guards shard channels against Close
	closed   atomic.Bool

	shards  []*shard
	active  []atomic.Bool // shard has ever accepted a batch
	batches sync.Pool     // *[]telemetry.Sample, emptied, capacity kept
	mergeCh chan mergeMsg
	wg      sync.WaitGroup
	mergeWG sync.WaitGroup

	// Counters (atomic: read by Snapshot and health without the lock).
	received    atomic.Int64 // samples presented to Ingest
	dropped     atomic.Int64 // samples dropped on full shard queues
	rejected    atomic.Int64 // samples with out-of-range node or time
	late        atomic.Int64 // samples behind the lateness bound
	mergeLate   atomic.Int64 // shard windows arriving behind the merge cursor
	events      atomic.Int64 // failure events observed
	frames      atomic.Int64 // frames applied to the operator chain
	chanWindows atomic.Int64 // per-channel windows finalized
	conns       atomic.Int64 // ingest connections the transport dropped
	wmark       atomic.Int64 // global watermark (min over active shards)

	// mu guards the operator chain and the merge cursor: Apply runs under
	// it, so Snapshot sees every operator at the same frame boundary.
	mu sync.Mutex
	// lastWindow is the start of the newest applied frame. Written under
	// mu, so Snapshot reads it consistently with the operators; atomic so
	// Health reads it without waiting for the operator chain.
	lastWindow atomic.Int64
	anyFrame   bool
	rollup     *Rollup
	edges      *Edges
	bands      *Bands
	warn       *core.EarlyWarningMonitor // fed by IngestEvents, not by frames
	ops        []Operator
}

// NewPipeline validates cfg, applies defaults, and starts the shard and
// merge goroutines.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("stream: non-positive node count %d", cfg.Nodes)
	}
	cfg = cfg.withDefaults()
	p := &Pipeline{
		cfg:     cfg,
		shards:  make([]*shard, cfg.Shards),
		active:  make([]atomic.Bool, cfg.Shards),
		mergeCh: make(chan mergeMsg, cfg.Shards*4),
	}
	p.batches.New = func() any { return new([]telemetry.Sample) }
	p.lastWindow.Store(alignWindow(cfg.StartTime, cfg.StepSec) - cfg.StepSec)
	p.wmark.Store(math.MinInt64)
	p.rollup = newRollup(cfg)
	p.edges = newEdges(cfg)
	p.bands = newBands(cfg)
	p.warn = core.NewEarlyWarningMonitor(units.SecondsPerHour)
	p.ops = append([]Operator{p.rollup, p.edges, p.bands}, cfg.Extra...)
	for i := range p.shards {
		own := (cfg.Nodes - i + cfg.Shards - 1) / cfg.Shards // nodes n with n % Shards == i
		p.shards[i] = &shard{
			id:           i,
			stride:       cfg.Shards,
			ch:           make(chan *[]telemetry.Sample, cfg.QueueDepth),
			chans:        make([]WindowCoarsener, own*int(telemetry.NumMetrics)),
			watermark:    math.MinInt64,
			lastBoundary: math.MinInt64,
		}
	}
	for _, s := range p.shards {
		p.wg.Add(1)
		go p.runShard(s)
	}
	p.mergeWG.Add(1)
	go p.runMerge()
	return p, nil
}

// Ingest feeds one telemetry batch. It never blocks: each shard's part is
// enqueued with a non-blocking send, and a full queue drops that part and
// counts it — the out-of-band path must not stall (paper §2). The batch is
// only borrowed: samples are copied into pooled per-shard batches before
// Ingest returns, so the caller may reuse its slice at once. A pooled batch
// belongs to Ingest until the send, then to the shard goroutine, which
// returns it to the pool once folded; a refused one goes straight back.
func (p *Pipeline) Ingest(batch []telemetry.Sample) {
	if len(batch) == 0 {
		return
	}
	p.received.Add(int64(len(batch)))
	if p.closed.Load() {
		p.dropped.Add(int64(len(batch)))
		return
	}
	// Ingest runs concurrently (one caller per connection), so the scatter
	// table is the caller's: on the stack up to 32 shards (Summit has 17).
	var stack [32]*[]telemetry.Sample
	per := stack[:min(p.cfg.Shards, len(stack))]
	if p.cfg.Shards > len(stack) {
		per = make([]*[]telemetry.Sample, p.cfg.Shards)
	}
	grid := alignWindow(p.cfg.StartTime, p.cfg.StepSec)
	var rejected int64
	for i := range batch {
		s := &batch[i]
		if int(s.Node) < 0 || int(s.Node) >= p.cfg.Nodes || s.Metric >= telemetry.NumMetrics || s.T < grid {
			rejected++
			continue
		}
		k := int(s.Node) % len(per)
		if per[k] == nil {
			per[k] = p.batches.Get().(*[]telemetry.Sample)
		}
		*per[k] = append(*per[k], *s)
	}
	if rejected > 0 {
		p.rejected.Add(rejected)
	}
	p.ingestMu.RLock()
	defer p.ingestMu.RUnlock()
	closed := p.closed.Load()
	var dropped int64
	for k, sub := range per {
		if sub == nil {
			continue
		}
		if !closed {
			select {
			case p.shards[k].ch <- sub:
				p.active[k].Store(true)
				continue
			default:
			}
		}
		dropped += int64(len(*sub))
		p.recycle(sub)
	}
	if dropped > 0 {
		p.dropped.Add(dropped)
	}
}

// recycle empties a per-shard batch and returns it to the pool.
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

// runShard drains one shard queue: coarsen per channel, advance the
// watermark, and ship finalized windows to the merger. The blocking send
// to mergeCh is safe: the merger drains until every shard exits.
func (p *Pipeline) runShard(s *shard) {
	defer p.wg.Done()
	step := p.cfg.StepSec
	for batch := range s.ch {
		maxT, late := s.fold(*batch, step)
		p.recycle(batch)
		if late > 0 {
			p.late.Add(late)
		}
		if s.advance(maxT, step, p.cfg.LatenessSec) {
			p.mergeCh <- s.collect(s.watermark)
		}
	}
	// Queue closed: flush every open window and release the watermark.
	p.mergeCh <- s.collect(math.MaxInt64)
}

// advance raises the watermark to maxT − lateness and reports whether it
// crossed a window boundary: only then can anything new finalize, so only
// then is the channel table scanned.
func (s *shard) advance(maxT, step, lateness int64) bool {
	if maxT == math.MinInt64 {
		return false // empty batch
	}
	if wm := maxT - lateness; wm > s.watermark {
		s.watermark = wm
	}
	b := alignWindow(s.watermark, step)
	if b <= s.lastBoundary {
		return false
	}
	s.lastBoundary = b
	return true
}

// fold adds one batch (every sample validated by Ingest) to the shard's
// coarseners and returns the newest timestamp and how many samples fell
// behind the lateness bound.
//
//lint:allocfree
func (s *shard) fold(batch []telemetry.Sample, step int64) (maxT, late int64) {
	maxT = math.MinInt64
	for i := range batch {
		smp := &batch[i]
		if smp.T > maxT {
			maxT = smp.T
		}
		c := &s.chans[int(smp.Node)/s.stride*int(telemetry.NumMetrics)+int(smp.Metric)]
		if c.step == 0 {
			c.step, c.closedEnd = step, math.MinInt64
		}
		if !c.Add(smp.T, smp.Value) {
			late++
		}
	}
	return maxT, late
}

// collect finalizes all shard windows closable at the given watermark and
// packages them, ascending by start, into a merge message. Walking the
// table in index order visits channels node ascending, metric ascending,
// so the message, including the node order of each window's power
// entries, is fully deterministic.
func (s *shard) collect(end int64) mergeMsg {
	msg := mergeMsg{shard: s.id, watermark: end}
	if end != math.MaxInt64 {
		msg.watermark = s.watermark
	}
	const metrics = int(telemetry.NumMetrics)
	own := len(s.chans) / metrics
	var node int32
	var metric telemetry.Metric
	emit := func(ws tsagg.WindowStat) {
		w := msg.windowAt(ws.T, own)
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
	for i := range s.chans {
		c := &s.chans[i]
		if c.step == 0 {
			// Never used. Closing it would raise its closedEnd and turn a
			// late-activated channel's first samples from accepted (and
			// counted merge_late) into late.
			continue
		}
		node, metric = int32(i/metrics*s.stride+s.id), telemetry.Metric(i%metrics)
		c.CloseThrough(end, emit)
	}
	return msg
}

// mergeWin accumulates shard contributions to one pending frame.
type mergeWin struct {
	power       []nodeStat
	bands       [core.NumTempBands]int64
	chanWindows int64
}

// runMerge is the single consumer of shard output: it orders finalized
// windows behind the minimum active-shard watermark and applies complete
// frames, in ascending event time, to the operator chain.
func (p *Pipeline) runMerge() {
	defer p.mergeWG.Done()
	nShards := len(p.shards)
	shardWM := make([]int64, nShards)
	for i := range shardWM {
		shardWM[i] = math.MinInt64
	}
	pending := map[int64]*mergeWin{}
	maxSeen := int64(math.MinInt64)
	step := p.cfg.StepSec
	nextEmit := alignWindow(p.cfg.StartTime, step)
	frame := &Frame{Step: step, NodePower: make([]tsagg.WindowStat, p.cfg.Nodes)}
	for msg := range p.mergeCh {
		if msg.watermark > shardWM[msg.shard] {
			shardWM[msg.shard] = msg.watermark
		}
		for i := range msg.windows {
			w := &msg.windows[i]
			if w.start < nextEmit {
				// Behind the merge cursor: the frame already shipped
				// (possible only for a shard activated after others had
				// advanced the cursor).
				p.mergeLate.Add(w.chanWindows)
				continue
			}
			mw := pending[w.start]
			if mw == nil {
				mw = &mergeWin{power: make([]nodeStat, 0, p.cfg.Nodes)}
				pending[w.start] = mw
			}
			mw.power = append(mw.power, w.power...)
			for b := range w.bands {
				mw.bands[b] += w.bands[b]
			}
			mw.chanWindows += w.chanWindows
			if w.start > maxSeen {
				maxSeen = w.start
			}
		}
		// Global watermark: the minimum over shards that have ever
		// accepted data. Shards that never saw a sample do not hold the
		// pipeline back; their late activation is counted above.
		g := int64(math.MaxInt64)
		activeAny := false
		for i := 0; i < nShards; i++ {
			if !p.active[i].Load() && shardWM[i] == math.MinInt64 {
				continue
			}
			activeAny = true
			if shardWM[i] < g {
				g = shardWM[i]
			}
		}
		if !activeAny || g == math.MinInt64 {
			continue
		}
		if g != math.MaxInt64 {
			p.wmark.Store(g)
		}
		// Before the first frame, fast-forward to the first data so a
		// live feed anchored far from StartTime does not emit years of
		// empty frames. p.anyFrame is only written by this goroutine.
		if !p.anyFrame && len(pending) > 0 {
			first := int64(math.MaxInt64)
			for t := range pending {
				if t < first {
					first = t
				}
			}
			if first > nextEmit {
				nextEmit = first
			}
		}
		for nextEmit+step <= g && nextEmit <= maxSeen {
			p.applyFrame(frame, pending, nextEmit)
			delete(pending, nextEmit)
			nextEmit += step
		}
	}
	// All shards flushed with watermark MaxInt64, so the loop above has
	// emitted everything; run the operators' end-of-stream hooks.
	p.mu.Lock()
	for _, op := range p.ops {
		op.Flush()
	}
	p.mu.Unlock()
}

// applyFrame builds the frame for window start (empty when no shard
// contributed) and applies the operator chain under the snapshot lock.
func (p *Pipeline) applyFrame(frame *Frame, pending map[int64]*mergeWin, start int64) {
	for i := range frame.NodePower {
		frame.NodePower[i] = tsagg.WindowStat{}
	}
	frame.BandGPUs = [core.NumTempBands]int64{}
	frame.Start = start
	frame.Observed = 0
	if mw := pending[start]; mw != nil {
		for _, ns := range mw.power {
			if int(ns.node) < len(frame.NodePower) && ns.stat.Count > 0 {
				frame.NodePower[ns.node] = ns.stat
				frame.Observed++
			}
		}
		frame.BandGPUs = mw.bands
		p.chanWindows.Add(mw.chanWindows)
	}
	p.mu.Lock()
	for _, op := range p.ops {
		op.Apply(frame)
	}
	p.lastWindow.Store(start)
	p.anyFrame = true
	p.mu.Unlock()
	p.frames.Add(1)
}

// Close stops ingestion, flushes every open window through the operator
// chain, and waits for the shard and merge goroutines. Idempotent.
// Samples offered to Ingest after Close are counted as dropped.
func (p *Pipeline) Close() {
	p.ingestMu.Lock()
	if p.closed.Swap(true) {
		p.ingestMu.Unlock()
		return
	}
	for _, s := range p.shards {
		close(s.ch)
	}
	p.ingestMu.Unlock()
	p.wg.Wait()
	close(p.mergeCh)
	p.mergeWG.Wait()
}

// IngestStats is the counter block of a snapshot.
type IngestStats struct {
	Received       int64 // samples presented to Ingest
	Dropped        int64 // dropped on full queues or after Close
	Rejected       int64 // out-of-range node or pre-StartTime timestamp
	Late           int64 // behind the lateness bound at a shard
	MergeLate      int64 // shard windows behind the merge cursor
	Events         int64 // failure events observed
	Frames         int64 // frames applied to the operator chain
	ChannelWindows int64 // per-channel windows finalized
	DroppedConns   int64 // ingest connections dropped by the transport
}

// ShardStat reports one shard queue's occupancy.
type ShardStat struct {
	QueueLen int
	QueueCap int
}

// Snapshot is a consistent point-in-time view of the pipeline.
type Snapshot struct {
	Ingest IngestStats
	// WatermarkT is the global event-time watermark; math.MinInt64 before
	// any data.
	WatermarkT int64
	// LastWindowT is the start of the newest applied frame.
	LastWindowT int64
	// SpanSec is the finalized observation span from StartTime.
	SpanSec      int64
	Shards       []ShardStat
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
	for _, sh := range p.shards {
		s.Shards = append(s.Shards, ShardStat{QueueLen: len(sh.ch), QueueCap: cap(sh.ch)})
	}
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
	return p.lastWindow.Load() + p.cfg.StepSec - alignWindow(p.cfg.StartTime, p.cfg.StepSec)
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
	Shards      []ShardStat
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
		Shards:      make([]ShardStat, len(p.shards)),
	}
	for i, sh := range p.shards {
		h.Shards[i] = ShardStat{QueueLen: len(sh.ch), QueueCap: cap(sh.ch)}
	}
	if st.Dropped > 0 {
		h.Reasons = append(h.Reasons, "ingest queue overflow dropped samples")
	}
	if st.Late > 0 {
		h.Reasons = append(h.Reasons, "samples beyond the lateness bound were dropped")
	}
	if st.MergeLate > 0 {
		h.Reasons = append(h.Reasons, "windows finalized before a late shard contributed")
	}
	if st.DroppedConns > 0 {
		h.Reasons = append(h.Reasons, "ingest connections dropped for bad frames or stalls")
	}
	if len(h.Reasons) > 0 {
		h.Status = "degraded"
	}
	return h
}
