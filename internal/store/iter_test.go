package store

import (
	"fmt"
	"math"
	"testing"
)

// iterCollect runs IterDayColumns and gathers the streamed value column
// plus copies of the axes.
func iterCollect(t *testing.T, ds *Dataset, day int, axes []string, value string) (map[string][]int64, []float64, int) {
	t.Helper()
	var sc IterScratch
	var vals []float64
	rows, err := ds.IterDayColumns(day, axes, value, &sc, func(start int, block []float64) error {
		if start != len(vals) {
			return fmt.Errorf("block start %d, want %d", start, len(vals))
		}
		vals = append(vals, block...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ax := map[string][]int64{}
	for i, name := range axes {
		ax[name] = append([]int64(nil), sc.Axes[i]...)
	}
	return ax, vals, rows
}

// TestIterDayColumnsParity pins the streaming read against the materializing
// read, bit for bit, under every codec and for both column orders (value
// after the axes — the collector's layout — and value before an axis, which
// exercises the deferred-buffer path).
func TestIterDayColumnsParity(t *testing.T) {
	n := 500
	ts := make([]int64, n)
	node := make([]int64, n)
	power := make([]float64, n)
	for i := range ts {
		ts[i] = int64(i/5) * 10
		node[i] = int64(i % 5)
		power[i] = 9000 + 120*math.Sin(float64(i)/17) + float64(i%3)
	}
	layouts := map[string]*Table{
		"axes-first": {Cols: []Column{
			{Name: "timestamp", Ints: ts},
			{Name: "node", Ints: node},
			{Name: "other", Floats: power}, // skipped
			{Name: "power_w", Floats: power},
		}},
		"value-first": {Cols: []Column{
			{Name: "power_w", Floats: power},
			{Name: "timestamp", Ints: ts},
			{Name: "node", Ints: node},
		}},
	}
	for layoutName, tab := range layouts {
		for _, codec := range writtenCodecs {
			name := fmt.Sprintf("%s/codec%d", layoutName, codec)
			dir := t.TempDir()
			ds, err := NewDataset(dir, "x")
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.WriteDayCodec(0, tab, codec); err != nil {
				t.Fatal(err)
			}
			axes, vals, rows := iterCollect(t, ds, 0, []string{"timestamp", "node"}, "power_w")
			if rows != n || len(vals) != n {
				t.Fatalf("%s: rows=%d vals=%d want %d", name, rows, len(vals), n)
			}
			for i := range ts {
				if axes["timestamp"][i] != ts[i] || axes["node"][i] != node[i] {
					t.Fatalf("%s: axis mismatch at row %d", name, i)
				}
				if math.Float64bits(vals[i]) != math.Float64bits(power[i]) {
					t.Fatalf("%s: value mismatch at row %d", name, i)
				}
			}
		}
	}
}

// TestIterDayColumnsIntWiden: an integer value column streams widened to
// float64, matching colValue semantics of the materialized path.
func TestIterDayColumnsIntWiden(t *testing.T) {
	tab := &Table{Cols: []Column{
		{Name: "timestamp", Ints: []int64{0, 10, 20}},
		{Name: "count", Ints: []int64{7, -2, 1 << 40}},
	}}
	ds, err := NewDataset(t.TempDir(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteDayCodec(0, tab, CodecGorilla); err != nil {
		t.Fatal(err)
	}
	_, vals, _ := iterCollect(t, ds, 0, []string{"timestamp"}, "count")
	for i, want := range tab.Cols[1].Ints {
		if vals[i] != float64(want) {
			t.Fatalf("row %d: %v != %v", i, vals[i], float64(want))
		}
	}
}

// TestIterDayColumnsValueIsAxis: requesting the time column as both axis and
// value works (a range query over the timestamp column itself).
func TestIterDayColumnsValueIsAxis(t *testing.T) {
	tab := &Table{Cols: []Column{
		{Name: "timestamp", Ints: []int64{5, 15, 25}},
		{Name: "v", Floats: []float64{1, 2, 3}},
	}}
	ds, err := NewDataset(t.TempDir(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteDayCodec(0, tab, CodecGorilla); err != nil {
		t.Fatal(err)
	}
	_, vals, _ := iterCollect(t, ds, 0, []string{"timestamp"}, "timestamp")
	for i, want := range tab.Cols[0].Ints {
		if vals[i] != float64(want) {
			t.Fatalf("row %d: %v != %v", i, vals[i], float64(want))
		}
	}
}

func TestIterDayColumnsErrors(t *testing.T) {
	tab := &Table{Cols: []Column{
		{Name: "timestamp", Ints: []int64{0}},
		{Name: "s", Strs: []string{"a"}},
		{Name: "f", Floats: []float64{1}},
	}}
	ds, err := NewDataset(t.TempDir(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteDayCodec(0, tab, CodecGorilla); err != nil {
		t.Fatal(err)
	}
	var sc IterScratch
	nop := func(int, []float64) error { return nil }
	if _, err := ds.IterDayColumns(0, []string{"timestamp"}, "missing", &sc, nop); err == nil {
		t.Error("missing value column accepted")
	}
	if _, err := ds.IterDayColumns(0, []string{"nope"}, "f", &sc, nop); err == nil {
		t.Error("missing axis column accepted")
	}
	if _, err := ds.IterDayColumns(0, []string{"timestamp"}, "s", &sc, nop); err == nil {
		t.Error("string value column accepted")
	}
	if _, err := ds.IterDayColumns(0, []string{"s"}, "f", &sc, nop); err == nil {
		t.Error("string axis column accepted")
	}
	if _, err := ds.IterDayColumns(3, []string{"timestamp"}, "f", &sc, nop); err == nil {
		t.Error("missing day accepted")
	}
	wantErr := fmt.Errorf("stop here")
	if _, err := ds.IterDayColumns(0, []string{"timestamp"}, "f", &sc, func(int, []float64) error {
		return wantErr
	}); err == nil {
		t.Error("fn error not propagated")
	}
}
