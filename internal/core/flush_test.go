package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/tsagg"
)

// flushPinConfigs is the pinned fleet: two 36-node clusters over three days
// at a one-minute cadence, so every run crosses two midnights — two flushes
// overlapped with the simulation, the third written by Close.
func flushPinConfigs() []sim.Config {
	cfgs := make([]sim.Config, 2)
	for i, member := range []struct{ name, site string }{{"summit-0", ""}, {"frontier-1", topology.SiteFrontier}} {
		cfgs[i] = sim.Config{
			Seed: sim.DeriveSeed(2020, i), Nodes: 36, Cluster: member.name, Site: member.site,
			StartTime: 1_577_836_800, DurationSec: 3 * 86400, StepSec: 60,
			SamplesPerWindow: 1, Jobs: 40, FailureRateScale: 1,
		}
	}
	return cfgs
}

// flushPins are the SHA-256 of every node-power and node-power.rollup
// partition file flushPinConfigs archives — the files themselves, deflate
// included, because the chunked encode and the concurrent writes claim not to
// move one byte of them. Recorded at the commit before the day flush left
// Observe (serial flush, one bufio.Write per value); a change that is not
// meant to alter the archive never regenerates them. They are tied to the
// toolchain's compress/flate: if a Go upgrade alone moves them,
// source.TestArchiveLayoutPin (gunzipped payloads) still holds and these are
// re-recorded in that upgrade's commit.
var flushPins = map[string]string{
	"summit-0/node-power-day00000.spwr":          "0e65a0063aca979b89007d4e105005e0d3111cdebe0c3d58e2053e662abac53c",
	"summit-0/node-power-day00001.spwr":          "cad72f241413413ce11611e449c67e3105e57eb836bb7d82dd5eb02a66994257",
	"summit-0/node-power-day00002.spwr":          "20d1a5f0f201985e2f147af591f8874523a290cd624f9a1edd66a1c356360fda",
	"summit-0/node-power.rollup-day00000.spwr":   "43a6cc36374d8f0c9f0322ce1ebe56c654ef7b9ccb2f8254b887efc3fdbe611a",
	"summit-0/node-power.rollup-day00001.spwr":   "9ea39e1a9a30f93dd883f96abe244ceafc6cb670c4c22f9073633728e5e58b4e",
	"summit-0/node-power.rollup-day00002.spwr":   "9129b355f3c3a709612a9b52baf8f4e36a14ffef495f2557c68e6cbfbf24927a",
	"frontier-1/node-power-day00000.spwr":        "a332fd17f955f95947eedbcc4748c190ba9411b8f88062a6ebe7473866fb69d8",
	"frontier-1/node-power-day00001.spwr":        "570165af7e06307e5ecc1e752dd0c371dc565968987fcf960f4a1b2f489d48e4",
	"frontier-1/node-power-day00002.spwr":        "0a1d924e92e7452c6e5197853bfeb6a3d3e8ca2abb090ba4e470e1bddb6bf52b",
	"frontier-1/node-power.rollup-day00000.spwr": "c1353b63b4b813b8ec3e5533d36ddd2b3d124fa776519a512cdcead5d606d28c",
	"frontier-1/node-power.rollup-day00001.spwr": "94a57e0afa34356daba2e5a98bff4643dfbb842a0c17594531d0f66e8601c084",
	"frontier-1/node-power.rollup-day00002.spwr": "df257d6bb653068fdda5f59975c3e6501592db8a1401cec26620a7e48c839f3c",
}

// nodePartitionSums hashes every node-power* file in dir.
func nodePartitionSums(t *testing.T, dir string) map[string]string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, DatasetNodePower+"*"))
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]string{}
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		sums[filepath.Base(name)] = hex.EncodeToString(sum[:])
	}
	return sums
}

// checkFlushPins holds what cluster archived into dir to its pins: every
// pinned partition written, nothing else, every hash equal.
func checkFlushPins(t *testing.T, what, cluster, dir string) {
	t.Helper()
	got, pinned := nodePartitionSums(t, dir), 0
	for name, sum := range got {
		if want := flushPins[cluster+"/"+name]; want != sum {
			t.Errorf("%s: %s/%s sha256 %s, pinned %q", what, cluster, name, sum, want)
		}
	}
	for key := range flushPins {
		if name, ok := strings.CutPrefix(key, cluster+"/"); ok {
			pinned++
			if _, ok := got[name]; !ok {
				t.Errorf("%s: pinned partition %s not written", what, key)
			}
		}
	}
	if pinned != 6 {
		t.Fatalf("%d pins for cluster %s, want three days of base and companion", pinned, cluster)
	}
}

// TestOverlappedFlushIsByteIdentical: the flush runs beside the simulation
// and the companion beside its base, so how many threads there are and what
// else runs must not reach the files — one core (the flush only ever runs
// when the simulator yields), two cores, and two clusters flushing at once
// all write the parent commit's bytes.
func TestOverlappedFlushIsByteIdentical(t *testing.T) {
	cfgs := flushPinConfigs()
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			dir := t.TempDir()
			if _, _, err := CollectRun(cfgs[0], AttachNodeDataset(dir)); err != nil {
				t.Fatal(err)
			}
			checkFlushPins(t, fmt.Sprintf("GOMAXPROCS %d", procs), cfgs[0].Cluster, dir)
		}()
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	if _, err := CollectFleet(cfgs, 2, func(i int) string { return dirs[i] }); err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		checkFlushPins(t, "fleet of two", cfg.Cluster, dirs[i])
	}
}

// TestFlushErrorStopsTheWriter blocks day 1's partition path with a
// directory, so that day's rename fails while day 2 is being simulated: Close
// must report that first error by partition name, day 2 must never be
// written, and nothing — no goroutine, no .tmp — may be left behind.
func TestFlushErrorStopsTheWriter(t *testing.T) {
	dir := t.TempDir()
	blocked := DatasetNodePower + "-day00001.spwr"
	if err := os.MkdirAll(filepath.Join(dir, blocked, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := NewNodeDatasetWriter(dir, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	snap := &sim.Snapshot{NodeStat: make([]tsagg.WindowStat, 4)}
	for snap.T = 1_577_836_800; snap.T < 1_577_836_800+4*86400; snap.T += 3600 {
		for n := range snap.NodeStat {
			snap.NodeStat[n] = tsagg.WindowStat{T: snap.T, Count: 1, Min: 400, Max: 400, Mean: 400}
		}
		w.Observe(snap)
	}
	err = w.Close()
	if err == nil || !strings.Contains(err.Error(), blocked) {
		t.Fatalf("Close error %v, want the failed rename of %s", err, blocked)
	}
	if again := w.Close(); again != err {
		t.Errorf("second Close returned %v, want the same first error", again)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") || strings.Contains(name, "-day00002") || strings.Contains(name, "-day00003") {
			t.Errorf("%s left in the archive after day 1 failed", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, DatasetNodePower+"-day00000.spwr")); err != nil {
		t.Errorf("day 0, flushed before the failure, is missing: %v", err)
	}
	// Close has received from every flush, so each is at most a return away
	// from gone; yield until the scheduler has let them take it.
	for tries := 0; flushGoroutines() > 0; tries++ {
		if tries == 1000 {
			t.Fatalf("%d flush goroutines still alive after Close", flushGoroutines())
		}
		runtime.Gosched()
	}
}

// flushGoroutines counts live goroutines inside the day flush.
func flushGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "source.WriteNodeDay") || strings.Contains(g, "source.writeNodeRollup") {
			n++
		}
	}
	return n
}

// closeSpy is an observer holding something to release: it counts its Close
// calls and fails them with err.
type closeSpy struct {
	closed int
	err    error
}

func (c *closeSpy) Observe(*sim.Snapshot) {}
func (c *closeSpy) Close() error          { c.closed++; return c.err }

func (c *closeSpy) attach(*sim.Sim) (sim.Observer, error) { return c, nil }

// TestCollectRunClosesEveryObserver: an observer may own a flush in flight,
// so no return path of CollectRun may leave one open — not an earlier
// observer's failed Close, not a later attachment that fails to build — and
// every error reaches the caller.
func TestCollectRunClosesEveryObserver(t *testing.T) {
	cfg := simConfigForNodeDataset()
	errFirst, errSecond, errAttach := errors.New("first close"), errors.New("second close"), errors.New("attach")

	first, second, last := &closeSpy{err: errFirst}, &closeSpy{err: errSecond}, &closeSpy{}
	_, _, err := CollectRun(cfg, first.attach, second.attach, last.attach)
	if !errors.Is(err, errFirst) || !errors.Is(err, errSecond) {
		t.Errorf("error %v, want both close errors", err)
	}
	if first.closed != 1 || second.closed != 1 || last.closed != 1 {
		t.Errorf("closed %d/%d/%d times after a failed Close, want once each", first.closed, second.closed, last.closed)
	}

	built := &closeSpy{err: errFirst}
	_, _, err = CollectRun(cfg, built.attach, func(*sim.Sim) (sim.Observer, error) { return nil, errAttach })
	if !errors.Is(err, errAttach) || !errors.Is(err, errFirst) {
		t.Errorf("error %v, want the attach error and the close error", err)
	}
	if built.closed != 1 {
		t.Errorf("observer built before a failed attach closed %d times, want once", built.closed)
	}

	ok := &closeSpy{}
	if _, _, err := CollectRun(cfg, ok.attach); err != nil || ok.closed != 1 {
		t.Errorf("clean run: error %v, closed %d times", err, ok.closed)
	}
}
