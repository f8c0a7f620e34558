package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTable() *Table {
	n := 1000
	ts := make([]int64, n)
	power := make([]float64, n)
	temp := make([]float64, n)
	for i := 0; i < n; i++ {
		ts[i] = 1577836800 + int64(i*10)
		power[i] = 1500 + 400*math.Sin(float64(i)/25)
		temp[i] = 40 + 5*math.Sin(float64(i)/40)
	}
	return &Table{Cols: []Column{
		{Name: "timestamp", Ints: ts},
		{Name: "input_power.mean", Floats: power},
		{Name: "gpu0_core_temp.mean", Floats: temp},
	}}
}

func TestRoundTrip(t *testing.T) {
	tab := sampleTable()
	var buf bytes.Buffer
	if err := WriteCodec(&buf, tab, CodecDelta); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tab.NumRows() || len(got.Cols) != len(tab.Cols) {
		t.Fatalf("shape mismatch")
	}
	for i := range tab.Cols {
		want, have := &tab.Cols[i], &got.Cols[i]
		if want.Name != have.Name || want.IsInt() != have.IsInt() {
			t.Fatalf("column %d metadata mismatch", i)
		}
		for j := 0; j < want.Len(); j++ {
			if want.IsInt() {
				if want.Ints[j] != have.Ints[j] {
					t.Fatalf("col %q row %d: %d != %d", want.Name, j, have.Ints[j], want.Ints[j])
				}
			} else if want.Floats[j] != have.Floats[j] {
				t.Fatalf("col %q row %d: %v != %v", want.Name, j, have.Floats[j], want.Floats[j])
			}
		}
	}
}

func TestRoundTripSpecialFloats(t *testing.T) {
	tab := &Table{Cols: []Column{{
		Name:   "x",
		Floats: []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), -0.0, 1e-300, 1e300},
	}}}
	var buf bytes.Buffer
	if err := WriteCodec(&buf, tab, CodecDelta); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range tab.Cols[0].Floats {
		have := got.Cols[0].Floats[j]
		if math.IsNaN(want) {
			if !math.IsNaN(have) {
				t.Fatalf("row %d: NaN lost", j)
			}
			continue
		}
		if math.Float64bits(want) != math.Float64bits(have) {
			t.Fatalf("row %d: bits differ", j)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(ints []int64, floats []float64) bool {
		n := len(ints)
		if len(floats) < n {
			n = len(floats)
		}
		tab := &Table{Cols: []Column{
			{Name: "i", Ints: append([]int64{}, ints[:n]...)},
			{Name: "f", Floats: append([]float64{}, floats[:n]...)},
		}}
		var buf bytes.Buffer
		if err := WriteCodec(&buf, tab, CodecDelta); err != nil {
			return false
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		for j := 0; j < n; j++ {
			if got.Cols[0].Ints[j] != tab.Cols[0].Ints[j] {
				return false
			}
			if math.Float64bits(got.Cols[1].Floats[j]) != math.Float64bits(tab.Cols[1].Floats[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEmptyTable(t *testing.T) {
	tab := &Table{Cols: []Column{{Name: "x", Floats: []float64{}}}}
	var buf bytes.Buffer
	if err := WriteCodec(&buf, tab, CodecDelta); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 {
		t.Errorf("rows = %d", got.NumRows())
	}
	// Entirely empty table.
	var buf2 bytes.Buffer
	if err := WriteCodec(&buf2, &Table{}, CodecDelta); err != nil {
		t.Fatal(err)
	}
	if got, err := Read(bytes.NewReader(buf2.Bytes())); err != nil || len(got.Cols) != 0 {
		t.Errorf("empty table round trip: %v, %v", got, err)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []*Table{
		{Cols: []Column{{Name: "", Floats: []float64{1}}}},
		{Cols: []Column{{Name: "a", Floats: []float64{1}}, {Name: "a", Floats: []float64{2}}}},
		{Cols: []Column{{Name: "a", Floats: []float64{1}}, {Name: "b", Floats: []float64{1, 2}}}},
		{Cols: []Column{{Name: "a", Ints: []int64{1}, Floats: []float64{1}}}},
	}
	for i, tab := range bad {
		if err := tab.Validate(); err == nil {
			t.Errorf("table %d validated", i)
		}
		var buf bytes.Buffer
		if err := WriteCodec(&buf, tab, CodecDelta); err == nil {
			t.Errorf("table %d written", i)
		}
	}
}

func TestReadErrors(t *testing.T) {
	// Not gzip.
	if _, err := Read(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk accepted")
	}
	// Valid gzip, bad magic.
	var buf bytes.Buffer
	tab := &Table{Cols: []Column{{Name: "x", Floats: []float64{1}}}}
	if err := WriteCodec(&buf, tab, CodecDelta); err != nil {
		t.Fatal(err)
	}
	// Truncated stream.
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestCol(t *testing.T) {
	tab := sampleTable()
	if tab.Col("timestamp") == nil || !tab.Col("timestamp").IsInt() {
		t.Error("Col lookup failed")
	}
	if tab.Col("nope") != nil {
		t.Error("Col returned non-existent column")
	}
}

func TestCompressionEffective(t *testing.T) {
	// Slowly-varying telemetry must compress far below raw size.
	tab := sampleTable()
	raw := tab.NumRows() * (8 + 8 + 8)
	var buf bytes.Buffer
	if err := WriteCodec(&buf, tab, CodecDelta); err != nil {
		t.Fatal(err)
	}
	ratio := float64(buf.Len()) / float64(raw)
	if ratio > 0.7 {
		t.Errorf("compression ratio = %.2f, want < 0.7 (%d of %d bytes)",
			ratio, buf.Len(), raw)
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDataset(dir, "node-power")
	if err != nil {
		t.Fatal(err)
	}
	tab := sampleTable()
	for day := 0; day < 3; day++ {
		if err := ds.WriteDay(day, tab); err != nil {
			t.Fatal(err)
		}
	}
	days, err := ds.Days()
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 3 || days[0] != 0 || days[2] != 2 {
		t.Fatalf("days = %v", days)
	}
	got, err := ds.ReadDay(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tab.NumRows() {
		t.Error("day round trip lost rows")
	}
	size, err := ds.SizeOnDisk()
	if err != nil || size <= 0 {
		t.Errorf("size = %d, %v", size, err)
	}
}

func TestDatasetErrors(t *testing.T) {
	if _, err := NewDataset(t.TempDir(), ""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewDataset(t.TempDir(), "a/b"); err == nil {
		t.Error("slash name accepted")
	}
	ds, _ := NewDataset(t.TempDir(), "x")
	if err := ds.WriteDay(-1, &Table{}); err == nil {
		t.Error("negative day accepted")
	}
	if _, err := ds.ReadDay(7); err == nil {
		t.Error("missing day read succeeded")
	}
}

// TestWriteDayFailedRenameLeavesNoTmp: a directory sits where the partition
// belongs, so the encode succeeds and the rename fails. The error must name
// the partition and the staged file must not outlive it — nothing sweeps
// orphaned .tmp files.
func TestWriteDayFailedRenameLeavesNoTmp(t *testing.T) {
	dir := t.TempDir()
	ds, _ := NewDataset(dir, "x")
	if err := os.MkdirAll(filepath.Join(dir, ds.DayFile(3), "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := ds.WriteDay(3, sampleTable())
	if err == nil || !strings.Contains(err.Error(), ds.DayFile(3)) {
		t.Fatalf("write over a directory: error %v, want one naming %s", err, ds.DayFile(3))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDir() {
		t.Errorf("dir holds %v after the failed write, want only the blocking directory", entries)
	}
}

func TestDatasetIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	ds, _ := NewDataset(dir, "x")
	if err := ds.WriteDay(0, &Table{}); err != nil {
		t.Fatal(err)
	}
	// Drop junk files in the directory.
	for _, name := range []string{"README.md", "x-dayBAD.spwr", "y-day00001.spwr"} {
		if err := writeFile(dir, name); err != nil {
			t.Fatal(err)
		}
	}
	days, err := ds.Days()
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 1 || days[0] != 0 {
		t.Errorf("days = %v, want [0]", days)
	}
}

func writeFile(dir, name string) error {
	return writeBytes(dir+"/"+name, []byte("junk"))
}

func BenchmarkWriteTable(b *testing.B) {
	tab := sampleTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteCodec(&buf, tab, CodecDelta); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadTable(b *testing.B) {
	tab := sampleTable()
	var buf bytes.Buffer
	if err := WriteCodec(&buf, tab, CodecDelta); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func writeBytes(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestAllCodecsRoundTrip(t *testing.T) {
	tab := sampleTable()
	for _, codec := range writtenCodecs {
		var buf bytes.Buffer
		if err := WriteCodec(&buf, tab, codec); err != nil {
			t.Fatalf("codec %d: %v", codec, err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("codec %d: %v", codec, err)
		}
		if got.NumRows() != tab.NumRows() {
			t.Fatalf("codec %d lost rows", codec)
		}
		for i := range tab.Cols {
			want, have := &tab.Cols[i], &got.Cols[i]
			for j := 0; j < want.Len(); j++ {
				if want.IsInt() {
					if want.Ints[j] != have.Ints[j] {
						t.Fatalf("codec %d col %d row %d int mismatch", codec, i, j)
					}
				} else if math.Float64bits(want.Floats[j]) != math.Float64bits(have.Floats[j]) {
					t.Fatalf("codec %d col %d row %d float mismatch", codec, i, j)
				}
			}
		}
	}
	for _, codec := range []Codec{1, 3, 5} {
		if err := WriteCodec(&bytes.Buffer{}, tab, codec); err == nil {
			t.Errorf("codec %d written", codec)
		}
	}
}

func TestCodecSizeOrdering(t *testing.T) {
	// On slowly-varying telemetry the delta codec must beat the same values
	// at fixed width under gzip, and gzip must beat the fixed-width bytes.
	tab := sampleTable()
	var delta, gz bytes.Buffer
	if err := WriteCodec(&delta, tab, CodecDelta); err != nil {
		t.Fatal(err)
	}
	var raw []byte
	for _, c := range tab.Cols {
		for _, v := range c.Ints {
			raw = binary.LittleEndian.AppendUint64(raw, uint64(v))
		}
		for _, v := range c.Floats {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
	}
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(raw); err != nil || zw.Close() != nil {
		t.Fatal(err)
	}
	if delta.Len() >= gz.Len() {
		t.Errorf("delta (%d) must beat gzipped fixed-width values (%d) on telemetry", delta.Len(), gz.Len())
	}
	if gz.Len() >= len(raw) {
		t.Errorf("gzip (%d) must beat the fixed-width bytes (%d)", gz.Len(), len(raw))
	}
}

func BenchmarkCodecAblation(b *testing.B) {
	tab := sampleTable()
	for codec, name := range map[Codec]string{
		CodecDelta: "delta-gzip", CodecDeltaFast: "delta-fast", CodecGorilla: "gorilla",
	} {
		codec := codec
		b.Run(name, func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := WriteCodec(&buf, tab, codec); err != nil {
					b.Fatal(err)
				}
				size = buf.Len()
			}
			b.ReportMetric(float64(size), "bytes")
		})
	}
}
