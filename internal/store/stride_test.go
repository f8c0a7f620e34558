package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"testing"
)

// TestStrideRoundTrip: a strided float column decodes to its values through
// every read path under both delta codecs, and its directory entry and
// member agree on the stride. Writers refuse a stride the format cannot
// hold: on a non-float column, beyond the rows or MaxStride, or under a codec
// with no predictor.
func TestStrideRoundTrip(t *testing.T) {
	tab := stridedWindowTable()
	for _, codec := range []Codec{CodecDelta, CodecDeltaFast} {
		enc := encoded(t, tab, codec)
		for _, src := range []source{plainReader, oneByte} {
			got, err := Read(src(bytes.NewReader(enc)))
			if err != nil {
				t.Fatalf("codec %d: %v", codec, err)
			}
			sameTable(t, fmt.Sprintf("codec %d", codec), tab, got)
			if c := got.Col("input_power.mean"); c.Stride != 0 {
				t.Errorf("a read column says stride %d: how the values were encoded is not part of them", c.Stride)
			}
		}
		sr, err := NewReader(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range sr.dir.cols {
			if want := max(tab.Col(c.Name).Stride, 1); c.stride != want {
				t.Errorf("directory: column %q at stride %d, want %d", c.Name, c.stride, want)
			}
		}
	}

	refused := map[string]func(*Table) Codec{
		"negative":       func(t *Table) Codec { t.Col("input_power.mean").Stride = -1; return CodecDelta },
		"integer column": func(t *Table) Codec { t.Col("node").Stride = 36; return CodecDelta },
		"string column":  func(t *Table) Codec { t.Col("tag").Stride = 36; return CodecDelta },
		"beyond rows":    func(t *Table) Codec { t.Col("input_power.mean").Stride = t.NumRows() + 1; return CodecDelta },
		"gorilla":        func(t *Table) Codec { return CodecGorilla },
	}
	for name, edit := range refused {
		tab := stridedWindowTable()
		if err := WriteCodec(io.Discard, tab, edit(tab)); err == nil || !strings.Contains(err.Error(), "stride") {
			t.Errorf("%s: WriteCodec error %v, want one about the stride", name, err)
		}
	}
	big := &Table{Cols: []Column{{Name: "v", Floats: make([]float64, MaxStride+1), Stride: MaxStride + 1}}}
	if err := WriteCodec(io.Discard, big, CodecDelta); err == nil {
		t.Error("a stride above MaxStride was written")
	}
}

// stridedPartition is a one-column partition claiming rows rows and a float
// column whose member says it is strided at stride, with no values after the
// stride, under codec; its directory lists the column unstrided, or at
// dirStride when that is more than 1.
func stridedPartition(t *testing.T, codec Codec, rows, stride uint64, dirStride int) []byte {
	header := appendUvarint(append([]byte(magic), version, byte(codec), 1), rows)
	member := appendUvarint([]byte{1, 'v', colFltStrided}, stride)
	dir := &directory{rows: int(rows), cols: []dirColumn{{ColumnInfo: ColumnInfo{Name: "v"}, stride: dirStride}}}
	return frameMembers(t, header, dir, [][]byte{member}, 0)
}

// TestStrideFromTheFileIsChecked: the stride is read from the file, so it is
// the attacker's. A stride of 0, one beyond the row count and one beyond
// MaxStride are refused when the column's member is opened — before the
// decoder sizes its history — and when the directory is parsed alike, and so
// is a strided column under a codec without a predictor.
func TestStrideFromTheFileIsChecked(t *testing.T) {
	for name, enc := range map[string][]byte{
		"stride 0":               stridedPartition(t, CodecDelta, 8, 0, 1),
		"stride beyond rows":     stridedPartition(t, CodecDelta, 8, 9, 1),
		"stride beyond the cap":  stridedPartition(t, CodecDelta, 1<<32, MaxStride+1, 1),
		"stride of 2^62":         stridedPartition(t, CodecDelta, 1<<32, 1<<62, 1),
		"strided gorilla column": stridedPartition(t, CodecGorilla, 8, 2, 2),
	} {
		if _, err := Read(bytes.NewReader(enc)); err == nil || !strings.Contains(err.Error(), `column "v"`) {
			t.Errorf("%s: Read error %v, want one naming the column", name, err)
		}
	}
	if _, err := Read(bytes.NewReader(stridedPartition(t, CodecDelta, 8, 3, 3))); err == nil {
		t.Error("a strided column with no values decoded")
	}

	for _, stride := range []uint64{0, 701, MaxStride + 1} {
		body := appendUvarint([]byte{}, 700) // rows
		body = append(body, 1, 1, 'v', colFltStrided, minMember)
		body = appendUvarint(body, stride)
		extra := append([]byte{dirID1, dirID2}, byte(len(body)+4), byte((len(body)+4)>>8))
		extra = binary.LittleEndian.AppendUint32(append(extra, body...), crc32.Checksum(body, castagnoli))
		if _, err := parseDirectory(extra); err == nil {
			t.Errorf("a directory entry at stride %d of 700 rows parsed", stride)
		}
	}
}

// TestStrideDirectoryMustMatchMember: a directory that names another stride
// than the column's member holds — each checksum intact — is an error for
// every read that decodes the column, and a problem fsck reports by column.
func TestStrideDirectoryMustMatchMember(t *testing.T) {
	enc := encoded(t, stridedWindowTable(), CodecDeltaFast)
	header, dir, sections := splitMembers(t, enc)
	for i := range dir.cols {
		if dir.cols[i].Name == "input_power.mean" {
			dir.cols[i].stride = 35
		}
	}
	bad := frameMembers(t, header, dir, sections, 0)

	if _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "at stride 36, the directory says") {
		t.Errorf("Read: %v, want the member's stride against the directory's", err)
	}
	ds := &Dataset{Dir: t.TempDir(), Name: "node-power"}
	if err := os.WriteFile(ds.dayPath(0), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	c := ds.VerifyDay(0)
	if len(c.Problems) != 1 || !strings.Contains(c.Problems[0].Error(), `column "input_power.mean"`) {
		t.Errorf("fsck: %v, want one problem naming column \"input_power.mean\"", c.Problems)
	}
	if err := os.WriteFile(ds.dayPath(0), enc, 0o644); err != nil {
		t.Fatal(err)
	}
	if c := ds.VerifyDay(0); !c.Strided || len(c.Problems) != 0 {
		t.Errorf("fsck of the intact partition: %+v, want strided, no problems", c)
	}
	if err := ds.WriteDayCodec(0, windowTable(), CodecDeltaFast); err != nil {
		t.Fatal(err)
	}
	if c := ds.VerifyDay(0); c.Strided {
		t.Error("fsck calls a partition without strides strided")
	}
}
