package store

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func metaTable() *Table {
	n := 500
	ts := make([]int64, n)
	node := make([]int64, n)
	power := make([]float64, n)
	temp := make([]float64, n)
	for i := 0; i < n; i++ {
		ts[i] = 1000 + int64(i*10)
		node[i] = int64(i % 4)
		power[i] = 1500 + 400*math.Sin(float64(i)/25)
		temp[i] = 40 + 5*math.Sin(float64(i)/40)
	}
	return &Table{Cols: []Column{
		{Name: "timestamp", Ints: ts},
		{Name: "node", Ints: node},
		{Name: "input_power.mean", Floats: power},
		{Name: "gpu0_core_temp.mean", Floats: temp},
	}}
}

func TestReaderStreamsColumns(t *testing.T) {
	tab := metaTable()
	for _, codec := range writtenCodecs {
		var buf bytes.Buffer
		if err := WriteCodec(&buf, tab, codec); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("codec %d: %v", codec, err)
		}
		if r.nCols != 4 || r.NumRows() != 500 || r.codec != codec {
			t.Fatalf("codec %d header: cols=%d rows=%d codec=%d",
				codec, r.nCols, r.NumRows(), r.codec)
		}
		// Skip timestamp and node, decode power, skip temp.
		for i := 0; i < 2; i++ {
			info, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !info.Int {
				t.Fatalf("column %d should be int", i)
			}
			if err := r.Skip(); err != nil {
				t.Fatal(err)
			}
		}
		info, err := r.Next()
		if err != nil || info.Name != "input_power.mean" || info.Int {
			t.Fatalf("third column = %+v, %v", info, err)
		}
		col, err := r.Column()
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range col.Floats {
			if math.Float64bits(v) != math.Float64bits(tab.Cols[2].Floats[j]) {
				t.Fatalf("codec %d row %d mismatch after skips", codec, j)
			}
		}
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		if err := r.Skip(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("want io.EOF after last column, got %v", err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReaderMisuse(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCodec(&buf, metaTable(), CodecDelta); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Column(); err == nil {
		t.Error("Column before Next accepted")
	}
	if err := r.Skip(); err == nil {
		t.Error("Skip before Next accepted")
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("Next with unconsumed column accepted")
	}
}

// TestReaderHeaderErrors: junk is refused, and so is a partition — directory
// intact — whose header names codec byte 1 or 3, the fixed-width codecs of
// partitions written before there were directories, or one past the last.
func TestReaderHeaderErrors(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk accepted")
	}
	header, dir, sections := splitMembers(t, encoded(t, metaTable(), CodecDelta))
	for _, codec := range []byte{1, 3, 5} {
		header[len(magic)+1] = codec
		enc := frameMembers(t, header, dir, sections, 0)
		if _, err := NewReader(bytes.NewReader(enc)); err == nil || err.Error() != fmt.Sprintf("store: unknown codec %d", codec) {
			t.Errorf("codec byte %d: %v, want it refused at header parse", codec, err)
		}
	}
}

func TestReadColumnsSubset(t *testing.T) {
	tab := metaTable()
	var buf bytes.Buffer
	if err := WriteCodec(&buf, tab, CodecDelta); err != nil {
		t.Fatal(err)
	}
	got, err := ReadColumns(bytes.NewReader(buf.Bytes()), []string{"timestamp", "gpu0_core_temp.mean"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cols) != 2 {
		t.Fatalf("got %d columns, want 2", len(got.Cols))
	}
	if got.Col("timestamp") == nil || got.Col("gpu0_core_temp.mean") == nil {
		t.Fatal("requested columns missing")
	}
	if got.Col("node") != nil {
		t.Fatal("unrequested column decoded")
	}
	for j, v := range got.Col("gpu0_core_temp.mean").Floats {
		if v != tab.Cols[3].Floats[j] {
			t.Fatalf("row %d mismatch", j)
		}
	}
	// Unknown names are ignored, not an error.
	got, err = ReadColumns(bytes.NewReader(buf.Bytes()), []string{"nope"})
	if err != nil || len(got.Cols) != 0 {
		t.Fatalf("unknown-column select: %v cols, err %v", len(got.Cols), err)
	}
}

func TestDayMeta(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDataset(dir, "node-power")
	if err != nil {
		t.Fatal(err)
	}
	tab := metaTable()
	if err := ds.WriteDay(3, tab); err != nil {
		t.Fatal(err)
	}
	meta, err := ds.DayMeta(3)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Day != 3 || meta.Rows != 500 {
		t.Errorf("day/rows = %d/%d", meta.Day, meta.Rows)
	}
	if !meta.HasTime || meta.TimeColumn != "timestamp" {
		t.Errorf("time column = %q (has=%v)", meta.TimeColumn, meta.HasTime)
	}
	if meta.MinTime != 1000 || meta.MaxTime != 1000+499*10 {
		t.Errorf("span = [%d, %d]", meta.MinTime, meta.MaxTime)
	}
	if len(meta.Columns) != 4 || meta.Columns[2].Name != "input_power.mean" {
		t.Errorf("columns = %+v", meta.Columns)
	}
}

func TestDayMetaTimeColumnFallback(t *testing.T) {
	dir := t.TempDir()
	ds, _ := NewDataset(dir, "jobs")
	tab := &Table{Cols: []Column{
		{Name: "begin_time", Ints: []int64{50, 10, 90}},
		{Name: "energy", Floats: []float64{1, 2, 3}},
	}}
	if err := ds.WriteDay(0, tab); err != nil {
		t.Fatal(err)
	}
	meta, err := ds.DayMeta(0, "timestamp", "begin_time")
	if err != nil {
		t.Fatal(err)
	}
	if !meta.HasTime || meta.TimeColumn != "begin_time" {
		t.Fatalf("fallback time column = %q (has=%v)", meta.TimeColumn, meta.HasTime)
	}
	// Unsorted times: min/max must be a scan, not first/last.
	if meta.MinTime != 10 || meta.MaxTime != 90 {
		t.Errorf("span = [%d, %d], want [10, 90]", meta.MinTime, meta.MaxTime)
	}
	// No candidate present at all.
	meta, err = ds.DayMeta(0, "nope")
	if err != nil {
		t.Fatal(err)
	}
	if meta.HasTime || meta.TimeColumn != "" {
		t.Errorf("absent time column reported: %+v", meta)
	}
}

func TestReadDayColumns(t *testing.T) {
	dir := t.TempDir()
	ds, _ := NewDataset(dir, "x")
	if err := ds.WriteDay(0, metaTable()); err != nil {
		t.Fatal(err)
	}
	got, err := ds.ReadDayColumns(0, []string{"node"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cols) != 1 || got.Col("node") == nil {
		t.Fatalf("cols = %d", len(got.Cols))
	}
}

func TestDaysSkipsNonCanonicalNames(t *testing.T) {
	dir := t.TempDir()
	ds, _ := NewDataset(dir, "x")
	if err := ds.WriteDay(2, metaTable()); err != nil {
		t.Fatal(err)
	}
	// One file per row beside the real day 2. Days and Datasets go through
	// the same parse, so they must agree on every row: a name is a partition
	// of its dataset for both or for neither.
	for _, tc := range []struct {
		name    string
		dataset string // dataset the entry is a partition of ("" = stray)
		day     int
		dir     bool
	}{
		{name: "x-day7.spwr"},                // not zero-padded
		{name: "x-day-0001.spwr"},            // negative
		{name: "x-day00003.spwr.tmp"},        // in-flight temp file
		{name: "x-day00009.spwr", dir: true}, // directory with a partition's name
		{name: "y-day000007.spwr"},           // over-padded: ReadDay(7) would not open it
		{name: "-day00001.spwr"},             // no dataset name
		{name: "x-day100000.spwr", dataset: "x", day: 100000},
		{name: "x-day7-day00004.spwr", dataset: "x-day7", day: 4},
	} {
		path := filepath.Join(dir, tc.name)
		var err error
		if tc.dir {
			err = os.Mkdir(path, 0o755)
		} else {
			err = os.WriteFile(path, []byte("junk"), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		names, err := Datasets(dir)
		if err != nil {
			t.Fatal(err)
		}
		wantNames := []string{"x"}
		wantDays := map[string][]int{"x": {2}}
		if tc.dataset != "" {
			if tc.dataset != "x" {
				wantNames = append(wantNames, tc.dataset)
			}
			wantDays[tc.dataset] = append(wantDays[tc.dataset], tc.day)
		}
		if !reflect.DeepEqual(names, wantNames) {
			t.Errorf("%s: Datasets = %v, want %v", tc.name, names, wantNames)
		}
		for _, name := range names {
			d, _ := NewDataset(dir, name)
			if days, err := d.Days(); err != nil || !reflect.DeepEqual(days, wantDays[name]) {
				t.Errorf("%s: dataset %s Days = %v, %v; want %v", tc.name, name, days, err, wantDays[name])
			}
			if tc.dataset == name && d.DayFile(tc.day) != tc.name {
				t.Errorf("%s: DayFile(%d) = %s", tc.name, tc.day, d.DayFile(tc.day))
			}
		}
		if err := os.RemoveAll(path); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReadDayErrorsNamePartition(t *testing.T) {
	dir := t.TempDir()
	ds, _ := NewDataset(dir, "cluster-power")
	// Corrupt partition: valid name, junk content.
	if err := os.WriteFile(filepath.Join(dir, "cluster-power-day00004.spwr"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ds.ReadDay(4)
	if err == nil {
		t.Fatal("corrupt partition read succeeded")
	}
	if !strings.Contains(err.Error(), "cluster-power-day00004.spwr") {
		t.Errorf("error does not name the partition: %v", err)
	}
	if _, err := ds.DayMeta(4); err == nil || !strings.Contains(err.Error(), "day00004") {
		t.Errorf("DayMeta error does not name the partition: %v", err)
	}
	// Truncated partition: valid header, cut mid-stream.
	var buf bytes.Buffer
	if err := WriteCodec(&buf, metaTable(), CodecDelta); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if err := os.WriteFile(filepath.Join(dir, "cluster-power-day00005.spwr"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.ReadDay(5); err == nil || !strings.Contains(err.Error(), "day00005") {
		t.Errorf("truncated partition error = %v", err)
	}
	// Missing day names the dataset and day.
	if _, err := ds.ReadDay(77); err == nil || !strings.Contains(err.Error(), "day 77") {
		t.Errorf("missing day error = %v", err)
	}
}

// TestRowCountBeyondPreallocCap covers the one case where a whole column is
// not decoded in place: a header row count above maxPreallocRows. A genuine
// table of that size must still round-trip (decoded block by block and
// appended), and a false claim on a short stream must fail rather than
// allocate what it claims.
func TestRowCountBeyondPreallocCap(t *testing.T) {
	n := maxPreallocRows + 5
	ints, floats := make([]int64, n), make([]float64, n)
	for i := range ints {
		ints[i], floats[i] = int64(i/3), float64(i%5)
	}
	var buf bytes.Buffer
	if err := WriteCodec(&buf, &Table{Cols: []Column{{Name: "i", Ints: ints}, {Name: "f", Floats: floats}}}, CodecDeltaFast); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ints {
		if got.Cols[0].Ints[i] != ints[i] || math.Float64bits(got.Cols[1].Floats[i]) != math.Float64bits(floats[i]) {
			t.Fatalf("row %d: (%d, %v), want (%d, %v)", i, got.Cols[0].Ints[i], got.Cols[1].Floats[i], ints[i], floats[i])
		}
	}

	// The same file cut short inside a column's member still claims n rows in
	// its header and its directory, whole or handed over half a request at a
	// time.
	sr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cut := sr.next
	for _, c := range sr.dir.cols {
		short := buf.Bytes()[:cut+c.size/2]
		cut += c.size
		if _, err := ReadColumns(bytes.NewReader(short), []string{c.Name}); err == nil {
			t.Errorf("truncated %q column of a %d-row claim decoded without error", c.Name, n)
		}
		if _, err := ReadColumns(halfReads(bytes.NewReader(short)), []string{c.Name}); err == nil {
			t.Errorf("truncated %q column of a %d-row claim read in halves without error", c.Name, n)
		}
	}
}
