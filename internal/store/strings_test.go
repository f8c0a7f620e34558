package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

func stringTable() *Table {
	return &Table{Cols: []Column{
		{Name: "timestamp", Ints: []int64{100, 110, 120}},
		{Name: "cluster", Strs: []string{"summit-0", "", "frontier-1"}},
		{Name: "power", Floats: []float64{1.5, 2.5, 3.5}},
	}}
}

func TestStringColumnRoundTrip(t *testing.T) {
	for _, codec := range writtenCodecs {
		tab := stringTable()
		var buf bytes.Buffer
		if err := WriteCodec(&buf, tab, codec); err != nil {
			t.Fatalf("codec %d: %v", codec, err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("codec %d: %v", codec, err)
		}
		c := got.Col("cluster")
		if c == nil || !c.IsStr() {
			t.Fatalf("codec %d: cluster column missing or mistyped", codec)
		}
		for j, want := range tab.Col("cluster").Strs {
			if c.Strs[j] != want {
				t.Fatalf("codec %d row %d: %q != %q", codec, j, c.Strs[j], want)
			}
		}
		if got.Col("timestamp").Ints[2] != 120 || got.Col("power").Floats[2] != 3.5 {
			t.Fatalf("codec %d: numeric columns corrupted by string neighbor", codec)
		}
	}
}

// headerVersion decodes the format version of a written table.
func headerVersion(t *testing.T, b []byte) uint64 {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(zr, head); err != nil {
		t.Fatal(err)
	}
	br := bytes.NewBuffer(nil)
	if _, err := io.CopyN(br, zr, 10); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		t.Fatal(err)
	}
	return ver
}

// TestStringVersionGating pins the compatibility contract: tables without
// string columns keep writing format version 2 (older readers still work,
// existing archives stay byte-identical); only a table that actually holds
// a string column is bumped to version 3.
func TestStringVersionGating(t *testing.T) {
	var numeric, withStr bytes.Buffer
	if err := WriteCodec(&numeric, sampleTable(), CodecDelta); err != nil {
		t.Fatal(err)
	}
	if err := WriteCodec(&withStr, stringTable(), CodecDelta); err != nil {
		t.Fatal(err)
	}
	if v := headerVersion(t, numeric.Bytes()); v != version {
		t.Fatalf("numeric table wrote version %d, want %d", v, version)
	}
	if v := headerVersion(t, withStr.Bytes()); v != versionStrings {
		t.Fatalf("string table wrote version %d, want %d", v, versionStrings)
	}
}

// TestStringColumnSkip exercises the skip path: a column-selective read
// that does not ask for the string column must walk past it correctly
// under the delta codec and the length-prefixed Gorilla one.
func TestStringColumnSkip(t *testing.T) {
	for _, codec := range []Codec{CodecDelta, CodecGorilla} {
		var buf bytes.Buffer
		if err := WriteCodec(&buf, stringTable(), codec); err != nil {
			t.Fatal(err)
		}
		got, err := ReadColumns(bytes.NewReader(buf.Bytes()), []string{"power"})
		if err != nil {
			t.Fatalf("codec %d: %v", codec, err)
		}
		if len(got.Cols) != 1 || got.Col("power") == nil {
			t.Fatalf("codec %d: selective read got %d cols", codec, len(got.Cols))
		}
		if got.Col("power").Floats[1] != 2.5 {
			t.Fatalf("codec %d: value corrupted after string skip", codec)
		}
	}
}

func TestStringTooLongRejected(t *testing.T) {
	tab := &Table{Cols: []Column{{Name: "s", Strs: []string{strings.Repeat("x", maxStrLen+1)}}}}
	var buf bytes.Buffer
	if err := WriteCodec(&buf, tab, CodecDelta); err == nil {
		t.Fatal("oversized string value accepted")
	}
}

func TestValidateRejectsMultiTyped(t *testing.T) {
	tab := &Table{Cols: []Column{{Name: "x", Ints: []int64{1}, Strs: []string{"a"}}}}
	if err := tab.Validate(); err == nil {
		t.Fatal("column with two typed slices accepted")
	}
}

// TestDayMetaSeesStringColumns checks that the metadata scan reports string
// columns with Str set and skips their data correctly.
func TestDayMetaSeesStringColumns(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDataset(dir, "run-meta")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteDay(0, stringTable()); err != nil {
		t.Fatal(err)
	}
	dm, err := ds.DayMeta(0)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, ci := range dm.Columns {
		if ci.Name == "cluster" {
			found = true
			if !ci.Str || ci.Int {
				t.Fatalf("cluster column info mistyped: %+v", ci)
			}
		}
	}
	if !found {
		t.Fatal("string column missing from DayMeta")
	}
	if !dm.HasTime || dm.MinTime != 100 || dm.MaxTime != 120 {
		t.Fatalf("time span wrong: %+v", dm)
	}
}

func TestTableBytesCountsStringBytes(t *testing.T) {
	small := &Table{Cols: []Column{{Name: "s", Strs: []string{"a", "b"}}}}
	big := &Table{Cols: []Column{{Name: "s", Strs: []string{strings.Repeat("x", 1000), "b"}}}}
	if TableBytes(big) <= TableBytes(small) {
		t.Fatalf("string bytes not accounted: big %d <= small %d", TableBytes(big), TableBytes(small))
	}
}
