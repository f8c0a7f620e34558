package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/units"
)

// liveFeed is the seeded input of the live-ingest workload: closed-form
// values for every (node, metric, event-second), so the harness can check
// streamd's answers without keeping what it sent.
type liveFeed struct {
	seed  uint64
	nodes int
	t0    int64 // first event-second, aligned to the coarsening window
}

func newLiveFeed(seed uint64, nodes int) liveFeed {
	return liveFeed{seed: seed, nodes: nodes, t0: 1_600_000_000 + int64(seed%1000)*units.CoarsenWindowSec}
}

// power is node's input power (W) at event-second k.
func (f liveFeed) power(node, k int) float64 {
	return 600 + float64((node*37+k*11+int(f.seed%97))%900) + 0.5*float64(k%3)
}

// temp is the core temperature (°C) of one GPU at event-second k.
func (f liveFeed) temp(node, gpu, k int) float64 {
	return 30 + float64((node*7+gpu*13+k*3+int(f.seed%53))%55)
}

// samplesPerTick is what one event-second of the whole fleet carries.
func (f liveFeed) samplesPerTick() int { return f.nodes * liveMetricsPerNode }

// fill writes event-second k into dst (len samplesPerTick), node by node.
func (f liveFeed) fill(dst []telemetry.Sample, k int) {
	t, i := f.t0+int64(k), 0
	for n := 0; n < f.nodes; n++ {
		id := topology.NodeID(n)
		dst[i] = telemetry.Sample{Node: id, Metric: telemetry.MetricInputPower, T: t, Value: f.power(n, k)}
		i++
		for g := 0; g < units.GPUsPerNode; g++ {
			dst[i] = telemetry.Sample{Node: id, Metric: telemetry.GPUCoreTempMetric(topology.GPUSlot(g)), T: t, Value: f.temp(n, g, k)}
			i++
		}
	}
}

// fleetWindow is the fleet power streamd must report for window j: the sum
// over nodes of each node's mean over the window's event-seconds.
func (f liveFeed) fleetWindow(j int) float64 {
	step := int(units.CoarsenWindowSec)
	sum := 0.0
	for n := 0; n < f.nodes; n++ {
		node := 0.0
		for k := j * step; k < (j+1)*step; k++ {
			node += f.power(n, k)
		}
		sum += node / float64(step)
	}
	return sum
}

// closeTick is the event-second whose arrival lets the watermark close
// window j: T = w + step + lateness, as an index into the feed.
func closeTick(j int) int {
	return j*int(units.CoarsenWindowSec) + int(units.CoarsenWindowSec) + int(units.MaxTimestampDelaySec)
}

// closableWindows is how many windows a feed of eventSec seconds closes
// while it is still being sent.
func closableWindows(eventSec int) int {
	n := 0
	for closeTick(n) <= eventSec-1 {
		n++
	}
	return n
}

// liveHealth is the part of /api/v1/live/health the harness reads.
type liveHealth struct {
	Received       int64 `json:"received"`
	Dropped        int64 `json:"dropped"`
	Rejected       int64 `json:"rejected"`
	Late           int64 `json:"late"`
	MergeLate      int64 `json:"merge_late"`
	Frames         int64 `json:"frames"`
	ChannelWindows int64 `json:"channel_windows"`
	LastWindowT    int64 `json:"last_window_t"`
	Shards         []struct {
		QueueLen int `json:"queue_len"`
	} `json:"shards"`
}

// observation is what the observer connection saw during one repetition.
type observation struct {
	polls     []healthPoll
	readMS    []float64 // latency of each cabinet-rollup fetch
	queueHigh int
	requests  int64
	errors    []string
}

type healthPoll struct {
	at         time.Time
	lastWindow int64
}

// watch polls health every HealthPollMS and fetches the cabinet rollup
// every RollupPollMS over one connection. It returns once stop is closed
// (the feed is sent) and a poll has shown window until, or readyTimeout
// after stop at the latest.
func watch(ctx context.Context, base string, sz sizes, until int64, stop <-chan struct{}) *observation {
	obs := &observation{}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	pollEvery := time.Duration(sz.HealthPollMS) * time.Millisecond
	rollupEvery := time.Duration(sz.RollupPollMS) * time.Millisecond
	next, nextRollup := time.Now(), time.Now()
	var giveUp time.Time
	for {
		select {
		case <-stop:
			if giveUp.IsZero() {
				giveUp = time.Now().Add(readyTimeout)
			}
			if n := len(obs.polls); (n > 0 && obs.polls[n-1].lastWindow >= until) || time.Now().After(giveUp) {
				return obs
			}
		case <-ctx.Done():
			return obs
		default:
		}
		r := fetch(ctx, client, base+"/api/v1/live/health")
		obs.requests++
		var hs liveHealth
		if r.err != nil || r.status != http.StatusOK || json.Unmarshal(r.body, &hs) != nil {
			obs.errors = append(obs.errors, fmt.Sprintf("health poll: status %d err %v", r.status, r.err))
		} else {
			obs.polls = append(obs.polls, healthPoll{at: time.Now(), lastWindow: hs.LastWindowT})
			for _, sh := range hs.Shards {
				if sh.QueueLen > obs.queueHigh {
					obs.queueHigh = sh.QueueLen
				}
			}
		}
		if !time.Now().Before(nextRollup) {
			r := fetch(ctx, client, base+"/api/v1/live/rollup?group=cabinet")
			obs.requests++
			if r.err != nil || r.status != http.StatusOK {
				obs.errors = append(obs.errors, fmt.Sprintf("rollup fetch: status %d err %v", r.status, r.err))
			} else {
				obs.readMS = append(obs.readMS, ms(r.latency))
			}
			nextRollup = nextRollup.Add(rollupEvery)
		}
		next = next.Add(pollEvery)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		} else {
			next = time.Now()
		}
	}
}

// sendFeed pushes event-seconds [0, n) of feed through exp on a fixed
// schedule, one every tick starting at start, each sent at its due time
// whether or not the server keeps up. It returns how late the latest tick
// left.
func sendFeed(ctx context.Context, exp *telemetry.Exporter, feed liveFeed, n int, start time.Time, tick time.Duration) (time.Duration, error) {
	buf := make([]telemetry.Sample, feed.samplesPerTick())
	var lateMax time.Duration
	for k := 0; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		feed.fill(buf, k)
		due := start.Add(time.Duration(k) * tick)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(due); late > lateMax {
			lateMax = late
		}
		for i := range buf {
			if err := exp.Push(buf[i]); err != nil {
				return 0, err
			}
		}
		if err := exp.Flush(); err != nil {
			return 0, err
		}
	}
	return lateMax, nil
}

// liveRep is one repetition's measurements.
type liveRep struct {
	lagMS    []float64
	obs      *observation
	lateMax  time.Duration
	ticksPS  float64
	usage    usage
	ready    time.Duration
	final    liveHealth
	failures []string
	// lost counts samples streamd did not account for; lostWhy says how.
	lost    int64
	lostWhy string
}

// startStreamd starts a fresh streamd sized for the feed.
func (h *harness) startStreamd() (*server, error) {
	return startServer(h.ctx, []string{"tcp", "http"}, h.binary("streamd"),
		"-nodes", strconv.Itoa(h.sz.LiveNodes), "-addr", "127.0.0.1:0", "-ingest", "127.0.0.1:0")
}

// dialFeed connects the one generator connection; a tick leaves as four
// frames.
func dialFeed(srv *server, feed liveFeed) (*telemetry.Exporter, error) {
	exp, err := telemetry.Dial(srv.Addrs["tcp"])
	if err != nil {
		return nil, err
	}
	exp.BatchSize = feed.samplesPerTick() / 4
	return exp, nil
}

// liveRepetition replays the feed into a fresh streamd while the observer
// polls it, and checks what streamd reports against the closed form.
func (h *harness) liveRepetition(feed liveFeed) (*liveRep, error) {
	sz := h.sz
	tick := time.Duration(sz.LiveTickUS) * time.Microsecond
	srv, err := h.startStreamd()
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_, _ = srv.stop()
		}
	}()
	exp, err := dialFeed(srv, feed)
	if err != nil {
		return nil, err
	}
	base := "http://" + srv.Addrs["http"]
	windows := closableWindows(sz.LiveEventSec)
	lastWindow := feed.t0 + int64(windows-1)*units.CoarsenWindowSec
	sent := int64(sz.LiveEventSec * feed.samplesPerTick())
	stop := make(chan struct{})
	seen := make(chan *observation, 1) // one send, from the observer goroutine
	go func() { seen <- watch(h.ctx, base, sz, lastWindow, stop) }()

	start := time.Now().Add(20 * time.Millisecond)
	lateMax, sendErr := sendFeed(h.ctx, exp, feed, sz.LiveEventSec, start, tick)
	close(stop) // the observer leaves once it has seen the last closable window
	obs := <-seen
	if sendErr != nil {
		return nil, sendErr
	}
	// The final counters, once streamd has read everything off the socket.
	client := &http.Client{}
	defer client.CloseIdleConnections()
	var final liveHealth
	for deadline := time.Now().Add(readyTimeout); ; time.Sleep(2 * time.Millisecond) {
		r := fetch(h.ctx, client, base+"/api/v1/live/health")
		if r.err == nil && json.Unmarshal(r.body, &final) == nil && final.Received >= sent {
			break
		}
		if time.Now().After(deadline) || h.ctx.Err() != nil {
			break
		}
	}
	rep := &liveRep{obs: obs, lateMax: lateMax, ready: srv.Ready, final: final}
	rep.failures = append(rep.failures, obs.errors...)

	// Correctness, outside the timed region: counters, then every closed
	// window against the closed form.
	if bad := final.Dropped + final.Late + final.Rejected + final.MergeLate; final.Received != sent || bad != 0 {
		rep.lost = bad
		if sent > final.Received {
			rep.lost += sent - final.Received
		}
		if rep.lost == 0 {
			rep.lost = 1
		}
		rep.lostWhy = fmt.Sprintf(
			"sent %d samples; streamd received %d, dropped %d, late %d, rejected %d, merge_late %d",
			sent, final.Received, final.Dropped, final.Late, final.Rejected, final.MergeLate)
	}
	rep.failures = append(rep.failures, checkLiveWindows(h.ctx, client, base, feed, windows)...)

	// Lag per window: from the due time of the tick that lets the
	// watermark close it to the first poll that shows it.
	p := 0
	for j := 0; j < windows; j++ {
		w := feed.t0 + int64(j)*units.CoarsenWindowSec
		for p < len(obs.polls) && obs.polls[p].lastWindow < w {
			p++
		}
		if p == len(obs.polls) {
			rep.failures = append(rep.failures, fmt.Sprintf("window %d never became queryable", j))
			continue
		}
		due := start.Add(time.Duration(closeTick(j)) * tick)
		rep.lagMS = append(rep.lagMS, ms(obs.polls[p].at.Sub(due)))
		if j == windows-1 {
			rep.ticksPS = float64(closeTick(j)+1) / obs.polls[p].at.Sub(start).Seconds()
		}
	}
	if err := exp.Close(); err != nil {
		return nil, err
	}
	stopped = true
	if rep.usage, err = srv.stop(); err != nil {
		return nil, err
	}
	return rep, nil
}

// checkLiveWindows fetches the fleet rollup and compares every closed
// window with the feed's closed form.
func checkLiveWindows(ctx context.Context, client *http.Client, base string, feed liveFeed, windows int) []string {
	r := fetch(ctx, client, base+"/api/v1/live/rollup?group=fleet&limit=4096")
	var roll struct {
		WindowsTotal int64 `json:"windows_total"`
		Points       []struct {
			T int64    `json:"t"`
			V *float64 `json:"v"`
		} `json:"points"`
	}
	if r.err != nil || r.status != http.StatusOK || json.Unmarshal(r.body, &roll) != nil {
		return []string{fmt.Sprintf("fleet rollup: status %d err %v", r.status, r.err)}
	}
	var bad []string
	if roll.WindowsTotal != int64(windows) || len(roll.Points) != windows {
		bad = append(bad, fmt.Sprintf("windows_total %d with %d points, want %d", roll.WindowsTotal, len(roll.Points), windows))
	}
	for j, p := range roll.Points {
		if j >= windows {
			break
		}
		want := feed.fleetWindow(j)
		if p.T != feed.t0+int64(j)*units.CoarsenWindowSec || !relClose(deref(p.V), want, 1e-9) {
			bad = append(bad, fmt.Sprintf("fleet window %d: t=%d v=%v, want t=%d v=%v",
				j, p.T, deref(p.V), feed.t0+int64(j)*units.CoarsenWindowSec, want))
		}
	}
	return bad
}

// runLive is the live-ingest workload: an open-loop feed at a fixed
// schedule into a fresh streamd per repetition, with one observer.
func (h *harness) runLive(res *runResult, tr *tracer) error {
	sz := h.sz
	feed := newLiveFeed(res.Seed, sz.LiveNodes)
	tick := time.Duration(sz.LiveTickUS) * time.Microsecond
	// Set-up: start streamd, replay a short untimed stretch, stop it.
	setup, err := setupRounds(setupRepeats, func(int) error {
		srv, err := h.startStreamd()
		if err != nil {
			return err
		}
		exp, err := dialFeed(srv, feed)
		if err == nil {
			_, err = sendFeed(h.ctx, exp, feed, sz.LiveWarmSec, time.Now(), tick)
			if cerr := exp.Close(); err == nil {
				err = cerr
			}
		}
		if _, serr := srv.stop(); err == nil {
			err = serr
		}
		return err
	})
	if err != nil {
		return err
	}
	res.set("setup_s", setup, setupRepeats)

	perTick := float64(feed.samplesPerTick())
	var lagMS, readMS, cpuPerTickMS, cpuPerSampleUS, ticksPS, rss, ready, frames, chanWindows []float64
	var lateMax time.Duration
	var dropped, late, mergeLate int64
	queueHigh := 0
	for rep := 0; rep < h.reps; rep++ {
		r, err := h.liveRepetition(feed)
		if err != nil {
			return err
		}
		windows := int64(closableWindows(sz.LiveEventSec))
		res.attempt(int64(sz.LiveEventSec)*int64(perTick) + r.obs.requests + windows)
		if r.lost > 0 {
			res.failN(r.lost, "rep %d: %s", rep, r.lostWhy)
		}
		for _, f := range r.failures {
			res.fail("rep %d: %s", rep, f)
		}
		lagMS = append(lagMS, r.lagMS...)
		readMS = append(readMS, r.obs.readMS...)
		cpuPerTickMS = append(cpuPerTickMS, ms(r.usage.CPU)/float64(sz.LiveEventSec))
		cpuPerSampleUS = append(cpuPerSampleUS, float64(r.usage.CPU.Microseconds())/(float64(sz.LiveEventSec)*perTick))
		ticksPS = append(ticksPS, r.ticksPS)
		rss = append(rss, r.usage.MaxRSSMB)
		ready = append(ready, ms(r.ready))
		frames = append(frames, float64(r.final.Frames))
		chanWindows = append(chanWindows, float64(r.final.ChannelWindows))
		dropped, late, mergeLate = dropped+r.final.Dropped, late+r.final.Late, mergeLate+r.final.MergeLate
		if r.lateMax > lateMax {
			lateMax = r.lateMax
		}
		if r.obs.queueHigh > queueHigh {
			queueHigh = r.obs.queueHigh
		}
	}
	res.set("ops_per_s", stats.Median(ticksPS), len(ticksPS))
	res.set("op_p50_ms", stats.Median(lagMS), len(lagMS))
	res.set("cpu_ms_per_op", stats.Median(cpuPerTickMS), len(cpuPerTickMS))
	res.set("live_cpu_us_per_sample", stats.Median(cpuPerSampleUS), len(cpuPerSampleUS))
	res.set("live_read_p50_ms", stats.Median(readMS), len(readMS))
	res.setTail("loadgen.lag_p90_ms", lagMS, 90)
	res.set("loadgen.late_max_ms", ms(lateMax), h.reps*sz.LiveEventSec)
	res.set("cmd.streamd.peak_rss_mb", stats.Median(rss), len(rss))
	res.set("cmd.streamd.ready_ms", stats.Median(ready), len(ready))
	res.set("stream.frames", stats.Median(frames), 0)
	res.set("stream.channel_windows", stats.Median(chanWindows), 0)
	res.set("stream.dropped", float64(dropped), 0)
	res.set("stream.late", float64(late), 0)
	res.set("stream.merge_late", float64(mergeLate), 0)
	res.set("stream.queue_high_water", float64(queueHigh), 0)
	if tr != nil {
		return traceLive(res, tr, feed, sz)
	}
	return nil
}
