package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
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
// partition flushPinConfigs archives — the bytes themselves, deflate
// included, because the overlapped flush and the concurrent writes claim not
// to move one byte of them whatever the thread count. Re-recorded once, at
// the commit that framed partitions as a directory plus one gzip member per
// column: that changed every file on purpose, and nothing under it — the
// gunzipped payloads of source.TestArchiveLayoutPin, recorded before the
// layout moved and untouched by that commit, are the proof. A change that is
// not meant to alter the archive never regenerates them. They are tied to the
// toolchain's compress/flate: if a Go upgrade alone moves them, the layout
// pin still holds and these are re-recorded in that upgrade's commit. The six
// base days were re-recorded once more when node-power moved to
// CodecDeltaFast with its float columns strided by the node count — a
// deliberate format change, under which the values did not move:
// TestStridedDaysDecodeToTheParentsValues holds them to deltaPins. The six
// companions were not touched by it and keep their literals. Since a day's
// companion is appended to its base in one file (nodePartitionSums cuts it
// off again), the two halves of each file still match these same literals.
var flushPins = map[string]string{
	"summit-0/node-power-day00000.spwr":          "ea9f5517671bbe5b4dff5deac4494f21095ae024e8dc3e351d42760b29cb9df3",
	"summit-0/node-power-day00001.spwr":          "6fd32189b3a83e196f2f5b9711962aa812a559a880e81a20a3607f2a60accb88",
	"summit-0/node-power-day00002.spwr":          "e018b4bfa6d010f6ed3e748b29f100555cd1ba5010d25d3bd942a394a0a3cf13",
	"summit-0/node-power.rollup-day00000.spwr":   "efe702da371d1fbdc88588756e637c90f3fb2bbeb629ed0bf8ce1abc369414a9",
	"summit-0/node-power.rollup-day00001.spwr":   "df52e812b94f7414cbe4bca8e838718a5bddeddedea037b559f09114f3a78e13",
	"summit-0/node-power.rollup-day00002.spwr":   "fe1dc371eaa9e1c5d29dba14b8abde0d44078a836a9454036de5a71a52733b48",
	"frontier-1/node-power-day00000.spwr":        "ce1f2f5e215bc6228d7499da416a2b49e6bed68019892a8bae0583510c2da616",
	"frontier-1/node-power-day00001.spwr":        "8feb805ae747ee36fdb9ce0363d68fd94fe4199034d0bdca9dfa7c5b75a1c16d",
	"frontier-1/node-power-day00002.spwr":        "b450b9f20cf4c372a9d76ec966bdebdee1b65720a0273d70d4598731515c4dc6",
	"frontier-1/node-power.rollup-day00000.spwr": "34935e47a931afeddd6c5ed12cb75d3b8efac5cc306a3d156bfd4b242edc65ea",
	"frontier-1/node-power.rollup-day00001.spwr": "3d1c353674fdfa8bd684e6b1e865d74f2e7d92d4a596ff0dd5382b19d6e017a7",
	"frontier-1/node-power.rollup-day00002.spwr": "f172c1323d05cba06a5bbb010182ba91261ba75ee1072c1b1d9f30f0647682a2",
}

// deltaPins are the base days of flushPins as every build before the strided
// base wrote them: CodecDelta, each float XORed with the previous row. Those
// bytes are a function of the values alone, so a strided day that decodes to
// exactly these values re-encodes to exactly these files.
var deltaPins = map[string]string{
	"summit-0/node-power-day00000.spwr":   "67c4ceaec995a181e631c5a63d7061559b98d60f2af9bed67ba979b43e19239e",
	"summit-0/node-power-day00001.spwr":   "24f9de8ff32ced590c0d8951da244177b71fe3bb4a1ec34a3e3503702888615e",
	"summit-0/node-power-day00002.spwr":   "f1965d95ca108fed5befc03bdb1958f0bf501f7b1ea72e054bf562922ab5e73e",
	"frontier-1/node-power-day00000.spwr": "4491e3280cf797f13c4067df3a8bad72d28d65f4e387b0bb14960322bd6f2137",
	"frontier-1/node-power-day00001.spwr": "17d5c1dc94e207299fd6e8a4fcaeb2da050a8709fe1f90d4e0209f193bc72d35",
	"frontier-1/node-power-day00002.spwr": "123ba032b7c86a703754b7e044a45561c88554a003ab292c93f98c55b31c4b86",
}

// nodePartitionSums hashes every node-power file in dir cut where its base
// partition ends: the base under the file's own name, the companion appended
// to it under the name of the file earlier builds wrote it to alone — the
// bytes are the same, so are the pins.
func nodePartitionSums(t *testing.T, dir string) map[string]string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, DatasetNodePower+"*"))
	if err != nil {
		t.Fatal(err)
	}
	hash := func(b []byte) string { sum := sha256.Sum256(b); return hex.EncodeToString(sum[:]) }
	sums := map[string]string{}
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Base(name)
		if strings.Contains(base, ".rollup") {
			t.Errorf("%s: a companion written to a file of its own", base)
			continue
		}
		br := bytes.NewReader(raw)
		err = store.SeekCompanion(br)
		at := len(raw) - br.Len()
		switch {
		case errors.Is(err, store.ErrNoCompanion):
			sums[base] = hash(raw)
		case err != nil:
			t.Fatalf("%s: %v", base, err)
		default:
			sums[base] = hash(raw[:at])
			sums[strings.Replace(base, "-day", ".rollup-day", 1)] = hash(raw[at:])
		}
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
			if _, _, err := CollectRun(cfgs[0], nodeWriter(t, dir, cfgs[0])); err != nil {
				t.Fatal(err)
			}
			checkFlushPins(t, fmt.Sprintf("GOMAXPROCS %d", procs), cfgs[0].Cluster, dir)
		}()
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	if _, err := CollectFleet(cfgs, 2, nodeWriters(t, cfgs, dirs...)); err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		checkFlushPins(t, "fleet of two", cfg.Cluster, dirs[i])
	}
}

// TestStridedDaysDecodeToTheParentsValues writes every node-power day of the
// pinned fleet both ways: by the collector — CodecDeltaFast, float columns
// strided by the node count — and, from what ReadDay decodes of that, the way
// every earlier build wrote it, stride 1 under CodecDelta. The second file
// must be the parent's to the byte (deltaPins), so the strided day holds the
// parent's values to the last bit; ReadDay of the two must agree; and fsck
// must see the strides, so a writer that silently fell back to the previous
// row fails here.
func TestStridedDaysDecodeToTheParentsValues(t *testing.T) {
	cfgs := flushPinConfigs()
	dirs := []string{t.TempDir(), t.TempDir()}
	if _, err := CollectFleet(cfgs, 2, nodeWriters(t, cfgs, dirs...)); err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		strided := &store.Dataset{Dir: dirs[i], Name: DatasetNodePower}
		delta := &store.Dataset{Dir: t.TempDir(), Name: DatasetNodePower}
		for day := 0; day < 3; day++ {
			what := cfg.Cluster + "/" + strided.DayFile(day)
			if c := strided.VerifyDay(day); !c.Strided || len(c.Problems) > 0 {
				t.Errorf("%s: fsck says strided %v, problems %v; want strided and clean", what, c.Strided, c.Problems)
			}
			want, err := strided.ReadDay(day)
			if err != nil {
				t.Fatal(err)
			}
			if err := delta.WriteDayCodec(day, want, store.CodecDelta); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join(delta.Dir, delta.DayFile(day)))
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != deltaPins[what] {
				t.Errorf("%s: re-encoded as CodecDelta, sha256 %x, the parent's %s", what, sum, deltaPins[what])
			}
			have, err := delta.ReadDay(day)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want.Cols {
				w, h := &want.Cols[k], &have.Cols[k]
				if w.Name != h.Name || !slices.Equal(w.Ints, h.Ints) || !slices.EqualFunc(w.Floats, h.Floats, func(a, b float64) bool {
					return math.Float64bits(a) == math.Float64bits(b)
				}) {
					t.Errorf("%s: column %q reads back differently from the two files", what, w.Name)
				}
			}
		}
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
		if strings.Contains(g, "(*NodeDatasetWriter).flush") || strings.Contains(g, "source.(*NodeDayWriter)") {
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

// TestCollectRunClosesEveryObserver: an observer may own a flush in flight,
// so no return path of CollectRun may leave one open — not an earlier
// observer's failed Close, not a config the sim refuses before the run — and
// every error reaches the caller.
func TestCollectRunClosesEveryObserver(t *testing.T) {
	cfg := simConfigForNodeDataset()
	errFirst, errSecond := errors.New("first close"), errors.New("second close")

	first, second, last := &closeSpy{err: errFirst}, &closeSpy{err: errSecond}, &closeSpy{}
	_, _, err := CollectRun(cfg, first, second, last)
	if !errors.Is(err, errFirst) || !errors.Is(err, errSecond) {
		t.Errorf("error %v, want both close errors", err)
	}
	if first.closed != 1 || second.closed != 1 || last.closed != 1 {
		t.Errorf("closed %d/%d/%d times after a failed Close, want once each", first.closed, second.closed, last.closed)
	}

	refused, failing := cfg, &closeSpy{err: errFirst}
	refused.Nodes = 0
	_, _, err = CollectRun(refused, failing)
	if err == nil || !strings.Contains(err.Error(), "non-positive node count") || !errors.Is(err, errFirst) {
		t.Errorf("error %v, want the refused config and the close error", err)
	}
	if failing.closed != 1 {
		t.Errorf("observer of a refused config closed %d times, want once", failing.closed)
	}

	ok := &closeSpy{}
	if _, _, err := CollectRun(cfg, ok); err != nil || ok.closed != 1 {
		t.Errorf("clean run: error %v, closed %d times", err, ok.closed)
	}
}

// TestNodeWriterHoldsNoDayOfRows: a 64-node day at the 10 s cadence is 553k
// rows, a 31 MB day table. Once it is observed the writer holds its two
// buffers of rows, its compressors and the day's compressed columns: less
// than one day table.
func TestNodeWriterHoldsNoDayOfRows(t *testing.T) {
	const nodes, windows, t0 = 64, 8640, int64(1_577_836_800)
	w, err := NewNodeDatasetWriter(t.TempDir(), nodes, "")
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	snap := &sim.Snapshot{NodeStat: make([]tsagg.WindowStat, nodes)}
	before := heap()
	for k := 0; k < windows; k++ {
		snap.T = t0 + int64(k)*10
		for n := range snap.NodeStat {
			v := math.Round(4*(400+150*math.Sin(float64(k)/300+float64(n)))+float64((k*31+n*17)%97)) / 4
			snap.NodeStat[n] = tsagg.WindowStat{T: snap.T, Count: 10, Min: v - 9, Max: v + 11, Mean: v, Std: 2 + v/1e3}
		}
		w.Observe(snap)
	}
	w.wait()
	held, dayTable := int64(heap())-int64(before), int64(nodes*windows*7*8)
	if held >= dayTable {
		t.Errorf("after a day of rows the writer holds %d bytes, a day table is %d", held, dayTable)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("held %.1f MB of a %.1f MB day table", float64(held)/1e6, float64(dayTable)/1e6)
}
