package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"testing"
	"testing/iotest"
)

// TestStrideRoundTrip: a strided float column decodes to its values through
// every read path under both delta codecs, and its directory entry and
// member agree on the stride. Writers refuse a stride the format cannot
// hold: on a non-float column, beyond the rows or MaxStride, or under a codec
// with no predictor.
func TestStrideRoundTrip(t *testing.T) {
	tab := stridedWindowTable()
	for _, codec := range []Codec{CodecDelta, CodecDeltaFast} {
		for _, framing := range framings {
			enc := encoded(t, framing.write, tab, codec)
			for _, wrap := range []func(io.Reader) io.Reader{plainReader, iotest.OneByteReader} {
				got, err := Read(wrap(bytes.NewReader(enc)))
				if err != nil {
					t.Fatalf("codec %d, %s: %v", codec, framing.name, err)
				}
				sameTable(t, framing.name, tab, got)
				if c := got.Col("input_power.mean"); c.Stride != 0 {
					t.Errorf("a read column says stride %d: how the values were encoded is not part of them", c.Stride)
				}
			}
		}
		sr, err := NewReader(bytes.NewReader(encoded(t, WriteCodec, tab, codec)))
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

// stridedPayload is a gunzipped one-column partition claiming rows rows and a
// float column at the given stride, with no values after the stride.
func stridedPayload(rows, stride uint64) []byte {
	b := append([]byte(magic), version, byte(CodecDelta), 1)
	b = appendUvarint(b, rows)
	b = append(b, 1, 'v', colFltStrided)
	return appendUvarint(b, stride)
}

// TestStrideFromTheFileIsChecked: the stride is read from the file, so it is
// the attacker's. A stride of 0, one beyond the row count and one beyond
// MaxStride are refused when the column header is read — before the decoder
// sizes its history — in the payload and in the directory alike, and so is a
// strided column under a codec without a predictor.
func TestStrideFromTheFileIsChecked(t *testing.T) {
	for name, payload := range map[string][]byte{
		"stride 0":               stridedPayload(8, 0),
		"stride beyond rows":     stridedPayload(8, 9),
		"stride beyond the cap":  stridedPayload(1<<32, MaxStride+1),
		"stride of 2^62":         stridedPayload(1<<32, 1<<62),
		"strided gorilla column": append(append([]byte(magic), version, byte(CodecGorilla), 1, 8), 1, 'v', colFltStrided, 2),
	} {
		r, err := newPayloadReader(bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), `column "v"`) {
			t.Errorf("%s: Next error %v, want one naming the column", name, err)
		}
	}
	if _, err := decodePayload(stridedPayload(8, 3), plainReader, (*Reader).Column); err == nil {
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
	enc := encoded(t, WriteCodec, stridedWindowTable(), CodecDeltaFast)
	sr, err := NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	header := sr.next
	for i := range sr.dir.cols {
		if sr.dir.cols[i].Name == "input_power.mean" {
			sr.dir.cols[i].stride = 35
		}
	}
	zr, err := gzip.NewReader(bytes.NewReader(enc[:header]))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var bad bytes.Buffer
	zw := gzip.NewWriter(&bad)
	zw.Extra = sr.dir.encode()
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	bad.Write(enc[header:])

	if _, err := Read(bytes.NewReader(bad.Bytes())); err == nil || !strings.Contains(err.Error(), "at stride 36, the directory says") {
		t.Errorf("Read: %v, want the member's stride against the directory's", err)
	}
	ds := &Dataset{Dir: t.TempDir(), Name: "node-power"}
	if err := os.WriteFile(ds.dayPath(0), bad.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c := ds.VerifyDay(0)
	if len(c.Problems) != 1 || !strings.Contains(c.Problems[0].Error(), `column "input_power.mean"`) {
		t.Errorf("fsck: %v, want one problem naming column \"input_power.mean\"", c.Problems)
	}
	if err := os.WriteFile(ds.dayPath(0), enc, 0o644); err != nil {
		t.Fatal(err)
	}
	if c := ds.VerifyDay(0); !c.Members || !c.Strided || len(c.Problems) != 0 {
		t.Errorf("fsck of the intact partition: %+v, want members, strided, no problems", c)
	}
	if err := ds.WriteDayCodec(0, windowTable(), CodecDeltaFast); err != nil {
		t.Fatal(err)
	}
	if c := ds.VerifyDay(0); c.Strided {
		t.Error("fsck calls a partition without strides strided")
	}
}
