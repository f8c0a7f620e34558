package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
)

// refColumn decodes the pending column the way every CodecDelta value was
// read before the windowed walk: one binary.ReadUvarint — an interface
// ReadByte per byte — per value, a float XORed with the decoded value stride
// rows back. It is the reference Reader.uvarints and the decoder's history
// are held to, values and error text alike. Other codecs and string columns
// never went through the varint walk and are decoded by the Reader itself.
func refColumn(r *Reader) (*Column, error) {
	if !r.codec.delta() || r.cur.Str {
		return r.Column()
	}
	col := Column{Name: r.cur.Name}
	if r.cur.Int {
		col.Ints = []int64{}
	} else {
		col.Floats = []float64{}
	}
	var iprev int64
	for j := 0; j < r.nRows; j++ {
		u, err := binary.ReadUvarint(r.br)
		if err != nil {
			return nil, fmt.Errorf("store: column %q row %d: %w", r.cur.Name, j, err)
		}
		if r.cur.Int {
			iprev += unzigzag(u)
			col.Ints = append(col.Ints, iprev)
		} else {
			if j >= r.stride {
				u ^= math.Float64bits(col.Floats[j-r.stride])
			}
			col.Floats = append(col.Floats, math.Float64frombits(u))
		}
	}
	return &col, r.end()
}

// decodePayload decodes every column of a gunzipped partition read through
// wrap, with the Reader's own column decode or with the reference.
func decodePayload(payload []byte, wrap func(io.Reader) io.Reader, column func(*Reader) (*Column, error)) ([]Column, error) {
	r, err := newPayloadReader(wrap(bytes.NewReader(payload)))
	if err != nil {
		return nil, err
	}
	var cols []Column
	for {
		if _, err := r.Next(); err == io.EOF {
			return cols, nil
		} else if err != nil {
			return nil, err
		}
		col, err := column(r)
		if err != nil {
			return nil, err
		}
		if col.Len() != r.NumRows() {
			return nil, fmt.Errorf("column %q decoded short: %d of %d rows", col.Name, col.Len(), r.NumRows())
		}
		cols = append(cols, *col)
	}
}

func plainReader(r io.Reader) io.Reader { return r }

// sameDecode requires the windowed decode of payload through wrap to equal
// the byte-at-a-time reference: the same columns bit for bit, or the same
// error.
func sameDecode(t testing.TB, what string, payload []byte, wrap func(io.Reader) io.Reader) error {
	t.Helper()
	want, wantErr := decodePayload(payload, plainReader, refColumn)
	got, gotErr := decodePayload(payload, wrap, (*Reader).Column)
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("%s: windowed decode error %v, reference %v", what, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d columns, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if d := diffColumn(&want[i], &got[i]); d != "" {
			t.Fatalf("%s: %s", what, d)
		}
	}
	return wantErr
}

// windowTable is built to cross every boundary of the windowed walk: more
// rows than one decode block, a payload of several bufio windows, runs of
// one-byte varints (repeated values) next to ten-byte ones (sign flips, NaN
// and infinity XORs), so values straddle window edges at every alignment.
func windowTable() *Table {
	const n = blockRows + 1500
	ts, node, wide := make([]int64, n), make([]int64, n), make([]int64, n)
	power, flat := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		ts[i] = 1_577_836_800 + int64(i/36)*10
		node[i] = int64(i % 36)
		wide[i] = int64(i%5-2) * (math.MaxInt64 / 3)
		power[i] = 1500 + 400*math.Sin(float64(i)/25)
		flat[i] = 0.5
		switch i % 97 {
		case 13:
			power[i] = math.NaN()
		case 14:
			power[i] = math.Inf(-1)
		case 15:
			power[i] = math.Copysign(0, -1)
		}
	}
	return &Table{Cols: []Column{
		{Name: "timestamp", Ints: ts}, {Name: "node", Ints: node}, {Name: "wide", Ints: wide},
		{Name: "input_power.mean", Floats: power}, {Name: "input_power.std", Floats: flat},
		{Name: "tag", Strs: strings.Split(strings.Repeat("summit-0,", n-1)+"x", ",")},
	}}
}

// stridedWindowTable is windowTable with its float columns strided by its 36
// nodes, as node-power's writer strides them.
func stridedWindowTable() *Table {
	tab := windowTable()
	for i := range tab.Cols {
		if c := &tab.Cols[i]; !c.IsInt() && !c.IsStr() {
			c.Stride = 36
		}
	}
	return tab
}

// headRows cuts tab down to its first rows rows.
func headRows(tab *Table, rows int) *Table {
	for i := range tab.Cols {
		c := &tab.Cols[i]
		switch {
		case c.IsInt():
			c.Ints = c.Ints[:rows]
		case c.IsStr():
			c.Strs = c.Strs[:rows]
		default:
			c.Floats = c.Floats[:rows]
		}
	}
	return tab
}

func gunzipped(t testing.TB, enc []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// deltaPayloads returns the gunzipped partitions the windowed decode is
// checked on: the generated table under both delta codecs, at stride 1 and
// strided (cut down to rows rows when rows > 0), and every checked-in
// fixture.
func deltaPayloads(t testing.TB, rows int) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name, tab := range map[string]*Table{"generated": windowTable(), "generated strided": stridedWindowTable()} {
		if rows > 0 {
			tab = headRows(tab, rows)
		}
		for _, codec := range []Codec{CodecDelta, CodecDeltaFast} {
			var buf bytes.Buffer
			if err := WriteCodec(&buf, tab, codec); err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s codec %d", name, codec)] = gunzipped(t, buf.Bytes())
		}
	}
	fixtures, err := filepath.Glob(filepath.Join("testdata", "codec*.spwr"))
	if err != nil || len(fixtures) != int(numCodecs) {
		t.Fatalf("fixtures %v, err %v", fixtures, err)
	}
	for _, name := range fixtures {
		enc, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(name)] = gunzipped(t, enc)
	}
	return out
}

// TestWindowedDecodeMatchesReference reads every payload through readers
// that hand bufio one byte, half a request, and the last bytes together with
// io.EOF: the window is then a single byte (every value takes the edge
// path), or ends mid-varint at shifting offsets, and the values must still be
// the reference's.
func TestWindowedDecodeMatchesReference(t *testing.T) {
	for name, payload := range deltaPayloads(t, 0) {
		for wname, wrap := range map[string]func(io.Reader) io.Reader{
			"plain": plainReader, "one byte": iotest.OneByteReader,
			"half": iotest.HalfReader, "data+EOF": iotest.DataErrReader,
		} {
			if err := sameDecode(t, name+" through "+wname, payload, wrap); err != nil {
				t.Errorf("%s: reference failed on an intact payload: %v", name, err)
			}
		}
	}
}

// TestWindowedDecodeTruncation cuts every payload at every byte offset: each
// cut must be an error — never a panic, never a short column — and the same
// error the byte-at-a-time read reports, which for a cut inside a delta
// column names the column and the row.
func TestWindowedDecodeTruncation(t *testing.T) {
	for name, payload := range deltaPayloads(t, 250) {
		named := 0
		for cut := 0; cut < len(payload); cut++ {
			what := fmt.Sprintf("%s cut at %d of %d", name, cut, len(payload))
			err := sameDecode(t, what, payload[:cut], plainReader)
			if err == nil {
				t.Fatalf("%s: decoded without error", what)
			}
			sameDecode(t, what+" (one byte)", payload[:cut], iotest.OneByteReader)
			if strings.Contains(err.Error(), `column "`) && strings.Contains(err.Error(), " row ") {
				named++
			}
		}
		if strings.HasPrefix(name, "generated") && named < len(payload)*9/10 {
			t.Errorf("%s: only %d of %d cuts named a column and row", name, named, len(payload))
		}
	}
}

// TestWindowedDecodeRejectsOverlongVarint: eleven continuation bytes are not
// a value under any reading; Column and Skip refuse them by column and row,
// whether the window holds them all or one byte at a time.
func TestWindowedDecodeRejectsOverlongVarint(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCodec(&buf, &Table{Cols: []Column{{Name: "v", Ints: []int64{7, 8, 9}}}}, CodecDelta); err != nil {
		t.Fatal(err)
	}
	payload := gunzipped(t, buf.Bytes())
	payload = payload[:len(payload)-2] // keep row 0, replace rows 1 and 2
	payload = append(payload, bytes.Repeat([]byte{0x80}, 11)...)
	payload = append(payload, 0x00, 0x00)
	for wname, wrap := range map[string]func(io.Reader) io.Reader{"plain": plainReader, "one byte": iotest.OneByteReader} {
		err := sameDecode(t, wname, payload, wrap)
		if err == nil || !strings.Contains(err.Error(), `column "v" row 1`) || !strings.Contains(err.Error(), "overflow") {
			t.Errorf("%s: Column error %v, want an overflow at column \"v\" row 1", wname, err)
		}
		r, err := newPayloadReader(wrap(bytes.NewReader(payload)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		if err := r.Skip(); err == nil || !strings.Contains(err.Error(), `column "v" row 1`) || !strings.Contains(err.Error(), "overflow") {
			t.Errorf("%s: Skip error %v, want an overflow at column \"v\" row 1", wname, err)
		}
	}
}

// TestSkipLandsWhereColumnDoes: walking past a column must leave the reader
// on the same byte decoding it does — each column is decoded after skipping
// all before it and checked against the reference, then everything after it
// is skipped to a clean io.EOF.
func TestSkipLandsWhereColumnDoes(t *testing.T) {
	for name, payload := range deltaPayloads(t, 0) {
		want, err := decodePayload(payload, plainReader, refColumn)
		if err != nil {
			t.Fatal(err)
		}
		for _, wrap := range []func(io.Reader) io.Reader{plainReader, iotest.OneByteReader} {
			for keep := range want {
				r, err := newPayloadReader(wrap(bytes.NewReader(payload)))
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; ; i++ {
					info, err := r.Next()
					if err == io.EOF && i == len(want) {
						break
					}
					if err != nil || info.Name != want[i].Name {
						t.Fatalf("%s keep %d: column %d announced as %+v, %v", name, keep, i, info, err)
					}
					if i != keep {
						if err := r.Skip(); err != nil {
							t.Fatalf("%s keep %d: skip column %d: %v", name, keep, i, err)
						}
						continue
					}
					col, err := r.Column()
					if err != nil {
						t.Fatal(err)
					}
					if d := diffColumn(&want[i], col); d != "" {
						t.Fatalf("%s: after skipping %d columns: %s", name, i, d)
					}
				}
			}
		}
	}
}

// FuzzReadDelta holds the windowed walk to the reference on arbitrary
// gunzipped payloads: equal columns or equal errors, through a whole-payload
// window and through half-sized reads.
func FuzzReadDelta(f *testing.F) {
	for _, payload := range deltaPayloads(f, 300) {
		f.Add(payload)
		f.Add(payload[:len(payload)*2/3])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		sameDecode(t, "plain", payload, plainReader)
		sameDecode(t, "half", payload, iotest.HalfReader)
	})
}
