package source

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
)

// writeFixture builds a two-day cluster-power archive plus a run manifest.
const (
	fixStart = int64(1_600_000_000)
	fixStep  = int64(60)
	fixDays  = 2
)

func fixVal(tm int64) float64 { return 5e6 + float64(tm%7200) }

func writeFixture(t testing.TB, dir string) Meta {
	t.Helper()
	ds, err := store.NewDataset(dir, DatasetClusterPower)
	if err != nil {
		t.Fatal(err)
	}
	windows := 0
	for day := 0; day < fixDays; day++ {
		var ts []int64
		var vals []float64
		for tm := fixStart + int64(day)*86400; tm < fixStart+int64(day+1)*86400; tm += fixStep {
			ts = append(ts, tm)
			vals = append(vals, fixVal(tm))
		}
		windows += len(ts)
		err := ds.WriteDay(day, &store.Table{Cols: []store.Column{
			{Name: "timestamp", Ints: ts},
			{Name: SeriesClusterPower, Floats: vals},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	meta := Meta{StartTime: fixStart, StepSec: fixStep, Nodes: 40, Windows: windows}
	manifest, err := store.NewDataset(dir, DatasetRunMeta)
	if err != nil {
		t.Fatal(err)
	}
	if err := manifest.WriteDay(0, ManifestTable(meta)); err != nil {
		t.Fatal(err)
	}
	return meta
}

func TestOpenArchiveMetaFromManifest(t *testing.T) {
	dir := t.TempDir()
	want := writeFixture(t, dir)
	arc, err := OpenArchive(ArchiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := arc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("meta = %+v, want %+v", got, want)
	}
	if _, err := arc.Series("no_such_series"); err == nil {
		t.Error("unknown series accepted")
	}
	if _, err := arc.Failures(); err == nil {
		t.Error("missing failure dataset accepted")
	}
}

// TestOpenArchiveRefusesWithoutRunMeta: the run-meta is the archive's
// commit record. Without it, or without one of its six columns, the archive
// is refused by an error naming the directory instead of read on a guessed
// shape; so is a node count the caller expects that it contradicts.
func TestOpenArchiveRefusesWithoutRunMeta(t *testing.T) {
	dir := t.TempDir()
	meta := writeFixture(t, dir)
	manifest := dataset(dir, DatasetRunMeta)
	if _, err := OpenArchive(ArchiveConfig{Dir: dir, Nodes: meta.Nodes}); err != nil {
		t.Fatalf("the node count the run-meta records: %v", err)
	}
	_, err := OpenArchive(ArchiveConfig{Dir: dir, Nodes: meta.Nodes + 1})
	if !errors.Is(err, ErrNodesMismatch) || !strings.Contains(err.Error(), dir) {
		t.Errorf("a contradicting node count: %v, want ErrNodesMismatch naming %s", err, dir)
	}

	noSite := ManifestTable(meta)
	noSite.Cols = noSite.Cols[:len(noSite.Cols)-1]
	if err := manifest.WriteDay(logDay, noSite); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenArchive(ArchiveConfig{Dir: dir}); err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), manifestSite) {
		t.Errorf("a run-meta without its %s column: %v, want a refusal naming %s and the column", manifestSite, err, dir)
	}

	if err := os.Remove(filepath.Join(dir, manifest.DayFile(logDay))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenArchive(ArchiveConfig{Dir: dir}); err == nil || !strings.Contains(err.Error(), dir) {
		t.Errorf("an archive without run-meta: %v, want a refusal naming %s", err, dir)
	}
}

// TestReadManifestRefusesImpossibleDimensions: a run-meta sizes the floor
// tables an engine allocates, so a claim no run can make — more nodes than
// MaxManifestNodes, none, a step that is not positive, a negative duration —
// is refused, naming the directory and the file, before anything is sized
// by it.
func TestReadManifestRefusesImpossibleDimensions(t *testing.T) {
	dir := t.TempDir()
	meta := writeFixture(t, dir)
	manifest := dataset(dir, DatasetRunMeta)
	for _, c := range []struct {
		name string
		col  string
		v    int64
	}{
		{"2^40 nodes", manifestNodes, 1 << 40},
		{"one node too many", manifestNodes, MaxManifestNodes + 1},
		{"no nodes", manifestNodes, 0},
		{"zero step", manifestStepSec, 0},
		{"negative duration", manifestDuration, -600},
	} {
		tab := ManifestTable(meta)
		tab.Col(c.col).Ints[0] = c.v
		if err := manifest.WriteDay(logDay, tab); err != nil {
			t.Fatal(err)
		}
		_, err := ReadManifest(dir)
		if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), manifest.DayFile(logDay)) {
			t.Errorf("%s: %v, want a refusal naming %s and its run-meta", c.name, err, dir)
		}
	}
	tab := ManifestTable(meta)
	tab.Col(manifestNodes).Ints[0] = MaxManifestNodes
	if err := manifest.WriteDay(logDay, tab); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadManifest(dir); err != nil || got.Nodes != MaxManifestNodes {
		t.Errorf("MaxManifestNodes nodes: %+v, %v", got, err)
	}
}

// FuzzReadManifest holds run-meta decoding at open to its bounds: any bytes
// in the run-meta partition give either dimensions a run can have — nodes
// within 1..MaxManifestNodes, a positive step, no negative window count — or
// an error naming the directory, and never a panic.
func FuzzReadManifest(f *testing.F) {
	run, err := os.ReadFile(filepath.Join("testdata", "summitsim-run-meta.spwr"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(run)
	seeds := f.TempDir()
	for _, tweak := range []func(*store.Table){
		func(tab *store.Table) { tab.Col(manifestNodes).Ints[0] = 1 << 40 },
		func(tab *store.Table) { tab.Col(manifestDuration).Ints[0] = -1 },
		func(tab *store.Table) { tab.Col(manifestStepSec).Ints[0] = 0 },
	} {
		tab := ManifestTable(Meta{StepSec: 10, Nodes: 16, Windows: 8640, Site: "summit"})
		tweak(tab)
		ds := dataset(seeds, DatasetRunMeta)
		if err := ds.WriteDay(logDay, tab); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(seeds, ds.DayFile(logDay)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "run-meta-day00000.spwr"), b, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(dir)
		if err != nil {
			if !strings.Contains(err.Error(), dir) {
				t.Fatalf("error does not name %s: %v", dir, err)
			}
			return
		}
		if m.Nodes < 1 || m.Nodes > MaxManifestNodes || m.StepSec <= 0 || m.Windows < 0 {
			t.Fatalf("accepted impossible dimensions %+v", m)
		}
	})
}

// TestLogsAreFrozenAtOpen: the whole-run logs are read through the indexes
// listed at open, like every series: a log written after the open is not
// there for the source that was opened before it.
func TestLogsAreFrozenAtOpen(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir)
	arc, err := OpenArchive(ArchiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset(dir, DatasetFailures).WriteDay(logDay, encodeRows(failureSchema, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := arc.Failures(); !errors.Is(err, ErrUnavailable) {
		t.Errorf("a log written after the open: %v, want ErrUnavailable", err)
	}
	reopened, err := OpenArchive(ArchiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if evs, err := reopened.Failures(); err != nil || len(evs) != 0 {
		t.Errorf("after a reopen: %d events, %v", len(evs), err)
	}
}

// TestConcurrentSeriesReads hammers one ArchiveSource from many goroutines:
// the shared decoded-table cache and the run dimensions must hold under the
// race detector.
func TestConcurrentSeriesReads(t *testing.T) {
	dir := t.TempDir()
	want := writeFixture(t, dir)
	arc, err := OpenArchive(ArchiveConfig{Dir: dir, Cache: store.NewTableCache(1 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				t0 := fixStart + int64((g*4+i)%fixDays)*86400
				s, err := arc.SeriesRange(SeriesClusterPower, t0, t0+3600)
				if err != nil {
					errs <- err
					return
				}
				for j, v := range s.Vals {
					if math.IsNaN(v) {
						continue
					}
					if want := fixVal(s.TimeAt(j)); v != want {
						t.Errorf("goroutine %d: value at %d = %v, want %v", g, s.TimeAt(j), v, want)
						return
					}
				}
				got, err := arc.Meta()
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- fmt.Errorf("goroutine %d: meta = %+v, want %+v", g, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// naiveSeriesRange is the reference SeriesRange is held to: every row of
// every cluster partition, in day then row order, written to its grid slot —
// the last write wins. A partition without an integer timestamp column or
// without the series as a float column holds no row of the series.
func naiveSeriesRange(t *testing.T, dir string, meta Meta, name string, t0, t1 int64) []float64 {
	t.Helper()
	ds, err := store.NewDataset(dir, DatasetClusterPower)
	if err != nil {
		t.Fatal(err)
	}
	days, err := ds.Days()
	if err != nil {
		t.Fatal(err)
	}
	var vals []float64
	for _, day := range days {
		tab, err := ds.ReadDay(day)
		if err != nil {
			t.Fatal(err)
		}
		ts, v := tab.Col("timestamp"), tab.Col(name)
		if ts == nil || !ts.IsInt() || v == nil || v.IsInt() || v.IsStr() {
			continue
		}
		for i, tv := range ts.Ints {
			idx := int((tv - meta.StartTime) / meta.StepSec)
			if tv < t0 || tv >= t1 || idx < 0 {
				continue
			}
			for idx >= len(vals) {
				vals = append(vals, math.NaN())
			}
			vals[idx] = v.Floats[i]
		}
	}
	return vals
}

// TestSeriesRangeMatchesNaive holds SeriesRange to the naive reference, bit
// for bit, on an archive built from the corners: two days whose grid spans
// overlap (day order decides the contested slots, so the fill must not run
// them concurrently), out-of-order and duplicate timestamps, a row before
// the grid origin, a day without a timestamp column, a day holding the
// series as integers, and an empty day — over seeded random ranges, for
// workers 1/2/7 and for the first (streamed), second (admitted) and third
// (resident) touch of a fresh cache.
func TestSeriesRangeMatchesNaive(t *testing.T) {
	dir := t.TempDir()
	ds, err := store.NewDataset(dir, DatasetClusterPower)
	if err != nil {
		t.Fatal(err)
	}
	const name, slots = SeriesClusterPower, 400
	grid := func(from, n int, salt float64) (ts []int64, vals []float64) {
		for i := from; i < from+n; i++ {
			ts = append(ts, fixStart+int64(i)*fixStep+int64(i%7))
			vals = append(vals, salt+float64(i))
		}
		return ts, vals
	}
	ts0, v0 := grid(0, slots, 1e6)
	ts0 = append(ts0, ts0[10], fixStart-2*fixStep, ts0[5]) // a duplicate, a row before the origin, a late row
	v0 = append(v0, math.NaN(), -1, math.Inf(1))
	ts1, v1 := grid(slots-100, slots, 2e6) // overlaps the last 100 slots of day 0
	ts2, v2 := grid(2*slots, 50, 3e6)
	ts3, _ := grid(2*slots+50, 50, 0)
	ts5, v5 := grid(3*slots, slots, 5e6) // disjoint from every other day
	tables := []*store.Table{
		{Cols: []store.Column{{Name: "timestamp", Ints: ts0}, {Name: name, Floats: v0}}},
		{Cols: []store.Column{{Name: name, Floats: v1}, {Name: "timestamp", Ints: ts1}}}, // value column first
		{Cols: []store.Column{{Name: "time", Ints: ts2}, {Name: name, Floats: v2}}},      // no timestamp column
		{Cols: []store.Column{{Name: "timestamp", Ints: ts3}, {Name: name, Ints: ts3}}},  // integer-typed series
		{Cols: []store.Column{{Name: "timestamp", Ints: []int64{}}, {Name: name, Floats: []float64{}}}},
		{Cols: []store.Column{{Name: "timestamp", Ints: ts5}, {Name: name, Floats: v5}}},
	}
	for day, tab := range tables {
		if err := ds.WriteDay(day, tab); err != nil {
			t.Fatal(err)
		}
	}
	meta := Meta{StartTime: fixStart, StepSec: fixStep, Nodes: 40, Windows: 4 * slots}
	manifest, err := store.NewDataset(dir, DatasetRunMeta)
	if err != nil {
		t.Fatal(err)
	}
	if err := manifest.WriteDay(0, ManifestTable(meta)); err != nil {
		t.Fatal(err)
	}

	end := fixStart + 4*slots*fixStep
	rng := rand.New(rand.NewSource(11))
	ranges := [][2]int64{
		{math.MinInt64, math.MaxInt64},
		{fixStart, fixStart + (slots-100)*fixStep}, // day 0 alone: disjoint from day 1's rows
		{fixStart + 3*slots*fixStep, end},          // day 5 alone
		{end, end + 1000},                          // nothing
	}
	for len(ranges) < 24 {
		t0 := fixStart - 500 + rng.Int63n(end-fixStart+1000)
		ranges = append(ranges, [2]int64{t0, t0 + 1 + rng.Int63n(end-fixStart)})
	}
	for _, workers := range []int{1, 2, 7} {
		cache := store.NewTableCache(64 << 20)
		arc, err := OpenArchive(ArchiveConfig{Dir: dir, Cache: cache, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ranges {
			want := naiveSeriesRange(t, dir, meta, name, r[0], r[1])
			cache.Flush()
			for _, touch := range []string{"stream", "admit", "hit"} {
				what := fmt.Sprintf("workers=%d [%d,%d) %s", workers, r[0], r[1], touch)
				got, err := arc.SeriesRange(name, r[0], r[1])
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if got.Start != meta.StartTime || got.Step != meta.StepSec || len(got.Vals) != len(want) {
					t.Fatalf("%s: series start %d step %d len %d, want %d %d %d", what,
						got.Start, got.Step, len(got.Vals), meta.StartTime, meta.StepSec, len(want))
				}
				for i := range want {
					if math.Float64bits(got.Vals[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: slot %d = %v, want %v", what, i, got.Vals[i], want[i])
					}
				}
			}
		}
		if c := cache.Counters(); c.Hits == 0 {
			t.Errorf("workers=%d: no read was served from a resident table", workers)
		}
	}
}
