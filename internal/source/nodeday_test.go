package source_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/tsagg"
)

// wholeDay is what a node-power day written block by block is held to: the
// day's rows as one table encoded at once — CodecDeltaFast, the float columns
// strided by the node count up to store.MaxStride — followed, with a floor,
// by the Gorilla companion a reducer folds from the same rows in order.
func wholeDay(t *testing.T, rows []source.NodeWindow, nodes int, floor *topology.Floor) []byte {
	t.Helper()
	stride := nodes
	if stride > store.MaxStride {
		stride = 1
	}
	cols := []store.Column{
		{Name: "timestamp", Ints: []int64{}}, {Name: "node", Ints: []int64{}}, {Name: "input_power.count", Ints: []int64{}},
		{Name: "input_power.min", Stride: stride}, {Name: "input_power.max", Stride: stride},
		{Name: "input_power.mean", Stride: stride}, {Name: "input_power.std", Stride: stride},
	}
	var red *source.RollupReducer
	if floor != nil {
		red = source.NewRollupReducer(floor, source.NodeRollupCols)
	}
	for _, r := range rows {
		st := r.Stat
		cols[0].Ints, cols[1].Ints, cols[2].Ints = append(cols[0].Ints, st.T), append(cols[1].Ints, r.Node), append(cols[2].Ints, st.Count)
		for k, v := range []float64{st.Min, st.Max, st.Mean, st.Std} {
			cols[3+k].Floats = append(cols[3+k].Floats, v)
		}
		if red != nil {
			if err := red.Add(st.T, r.Node, []float64{float64(st.Count), st.Min, st.Max, st.Mean, st.Std}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := store.WriteCodec(&buf, &store.Table{Cols: cols}, store.CodecDeltaFast); err != nil {
		t.Fatal(err)
	}
	if red != nil {
		if err := store.WriteCodec(&buf, red.Table(), store.CodecGorilla); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// nodeRows is windows windows of nodes rows from t0 at a 600 s step; every
// lost-th row (0: none) is a lost node-window, Count 0 and NaN values.
func nodeRows(t0 int64, windows, nodes, lost int) []source.NodeWindow {
	var rows []source.NodeWindow
	for w := 0; w < windows; w++ {
		for n := 0; n < nodes; n++ {
			v := 400 + 3*float64(n) + 50*math.Sin(float64(w)/9)
			st := tsagg.WindowStat{T: t0 + int64(w)*600, Count: 60, Min: v - 4, Max: v + 7, Mean: v, Std: 1.5}
			if lost > 0 && len(rows)%lost == lost-1 {
				nan := math.NaN()
				st = tsagg.WindowStat{T: st.T, Min: nan, Max: nan, Mean: nan, Std: nan}
			}
			rows = append(rows, source.NodeWindow{Node: int64(n), Stat: st})
		}
	}
	return rows
}

// appendBlocks feeds rows to w in blocks of every size.
func appendBlocks(t *testing.T, w *source.NodeDayWriter, rows []source.NodeWindow) {
	t.Helper()
	for at, k := 0, 0; at < len(rows); k++ {
		n := min([]int{1, 7, 0, 1000, 36*5 + 11, 1 << 14}[k%6], len(rows)-at)
		if err := w.Append(rows[at : at+n]); err != nil {
			t.Fatal(err)
		}
		at += n
	}
}

// TestNodeDayWriterMatchesTheWholeDay: a node-power day written block by
// block — blocks of every size, a window cut across them, a midnight too —
// is the file its rows encoded whole make, companion included: with lost
// node-windows among them, for a short last day after a full one, and for
// more nodes than a stride may name, where the floats fall back to the
// previous row.
func TestNodeDayWriterMatchesTheWholeDay(t *testing.T) {
	tcfg, err := topology.PresetScaled("", 36)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := topology.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	const t0 = int64(1_577_836_800)
	for _, tc := range []struct {
		name    string
		nodes   int
		floor   *topology.Floor
		days    [][]source.NodeWindow
		strided bool
	}{
		{"lost node-windows", 36, floor, [][]source.NodeWindow{nodeRows(t0, 144, 36, 13)}, true},
		{"a partial last day", 36, floor, [][]source.NodeWindow{nodeRows(t0, 144, 36, 0), nodeRows(t0+86400, 50, 36, 29)}, true},
		{"more nodes than MaxStride", store.MaxStride + 1, nil, [][]source.NodeWindow{nodeRows(t0, 2, store.MaxStride+1, 0)}, false},
	} {
		dir := t.TempDir()
		w := source.NewNodeDayWriter(dir, tc.nodes, tc.floor)
		ds := &store.Dataset{Dir: dir, Name: source.DatasetNodePower}
		for _, rows := range tc.days {
			appendBlocks(t, w, rows)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for day, rows := range tc.days {
			got, err := os.ReadFile(filepath.Join(dir, ds.DayFile(day)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wholeDay(t, rows, tc.nodes, tc.floor)) {
				t.Errorf("%s, day %d: the streamed file differs from the whole day's", tc.name, day)
			}
			if c := ds.VerifyDay(day); c.Strided != tc.strided || len(c.Problems) > 0 || c.Companion != (tc.floor != nil) {
				t.Errorf("%s, day %d: fsck %+v; want strided %v, a companion %v, no problems", tc.name, day, c, tc.strided, tc.floor != nil)
			}
		}
		if days, err := ds.Days(); err != nil || len(days) != len(tc.days) {
			t.Errorf("%s: days %v (%v), want %d", tc.name, days, err, len(tc.days))
		}
	}
}

// TestNodeDayWriterCutsAtMidnight: 36 nodes over a day and a half, fed in
// blocks that straddle the midnight, write the same bytes as the same rows
// fed one day at a time, a block ending at the midnight; the days count from
// the first row, and a writer fed nothing writes nothing.
func TestNodeDayWriterCutsAtMidnight(t *testing.T) {
	tcfg, err := topology.PresetScaled("", 36)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := topology.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	const t0 = int64(1_577_836_800 + 3600) // days count from the first row, not the calendar's midnight
	rows := nodeRows(t0, 216, 36, 17)      // 1.5 days at 600 s
	write := func(blocks ...[]source.NodeWindow) string {
		dir := t.TempDir()
		w := source.NewNodeDayWriter(dir, 36, floor)
		for _, b := range blocks {
			if err := w.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	cut := 144 * 36
	want := write(rows[:cut], rows[cut:])
	ds := &store.Dataset{Dir: want, Name: source.DatasetNodePower}
	if days, err := ds.Days(); err != nil || len(days) != 2 {
		t.Fatalf("days cut at midnight: %v (%v), want 2", days, err)
	}
	for _, straddle := range []int{1, 36, 100, cut - 1} {
		got := write(rows[:cut-straddle], rows[cut-straddle:])
		for day := 0; day < 2; day++ {
			a, errA := os.ReadFile(filepath.Join(want, ds.DayFile(day)))
			b, errB := os.ReadFile(filepath.Join(got, ds.DayFile(day)))
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				t.Errorf("a block straddling midnight by %d rows: day %d differs (%v, %v)", straddle, day, errA, errB)
			}
		}
	}
	blocks := write(rows) // one block holding both days
	if files, _ := os.ReadDir(blocks); len(files) != 2 {
		t.Errorf("one block of both days wrote %d files, want 2", len(files))
	}
	if files, err := os.ReadDir(write()); err != nil || len(files) != 0 {
		t.Errorf("a writer fed nothing left %v (%v)", files, err)
	}
}

// TestNodeDayWriterDropsAFailedDay: a row the companion cannot fold — a node
// outside the floor — fails Append, and the day it was in is never
// committed: its base would carry rows its companion lacks.
func TestNodeDayWriterDropsAFailedDay(t *testing.T) {
	tcfg, err := topology.PresetScaled("", 36)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := topology.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w := source.NewNodeDayWriter(dir, 36, floor)
	rows := nodeRows(1_577_836_800, 3, 36, 0)
	if err := w.Append(rows[:36]); err != nil {
		t.Fatal(err)
	}
	rows[40].Node = 36
	if err := w.Append(rows[36:]); err == nil {
		t.Fatal("a node outside the floor was folded")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("dir holds %v (%v) after a failed day, want nothing", entries, err)
	}
}
