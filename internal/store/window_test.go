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
	if err := r.begin(); err != nil {
		return nil, err
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

// source hands a partition's bytes to a Reader; the wrappers below hand them
// over the ways a pipe or a slow disk might.
type source func(*bytes.Reader) io.ReadSeeker

func plainReader(r *bytes.Reader) io.ReadSeeker { return r }

// oneByte and halfReads hand on one byte, or half the request, a Read;
// Seek goes to the bytes.Reader itself, since the wrappers keep no state.
func oneByte(r *bytes.Reader) io.ReadSeeker {
	return struct {
		io.Reader
		io.Seeker
	}{iotest.OneByteReader(r), r}
}

func halfReads(r *bytes.Reader) io.ReadSeeker {
	return struct {
		io.Reader
		io.Seeker
	}{iotest.HalfReader(r), r}
}

// dataEOF returns io.EOF together with the source's last bytes, as
// iotest.DataErrReader does.
type dataEOF struct{ *bytes.Reader }

func (d dataEOF) Read(p []byte) (int, error) {
	n, err := d.Reader.Read(p)
	if err == nil && d.Len() == 0 {
		err = io.EOF
	}
	return n, err
}

func dataWithEOF(r *bytes.Reader) io.ReadSeeker { return dataEOF{r} }

// decodeMembers decodes every column of a partition read through src, with
// the Reader's own column decode or with the reference.
func decodeMembers(enc []byte, src source, column func(*Reader) (*Column, error)) ([]Column, error) {
	r, err := NewReader(src(bytes.NewReader(enc)))
	if err != nil {
		return nil, err
	}
	defer r.Close()
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

// sameDecode requires the windowed decode of enc through src to equal the
// byte-at-a-time reference: the same columns bit for bit, or the same error.
func sameDecode(t testing.TB, what string, enc []byte, src source) error {
	t.Helper()
	want, wantErr := decodeMembers(enc, plainReader, refColumn)
	got, gotErr := decodeMembers(enc, src, (*Reader).Column)
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

// deltaPartitions returns the partitions the windowed decode is checked on:
// the generated table under both delta codecs, at stride 1 and strided (cut
// down to rows rows when rows > 0), and the checked-in members-*.spwr but
// the one with a companion.
func deltaPartitions(t testing.TB, rows int) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name, tab := range map[string]*Table{"generated": windowTable(), "generated strided": stridedWindowTable()} {
		if rows > 0 {
			tab = headRows(tab, rows)
		}
		for _, codec := range []Codec{CodecDelta, CodecDeltaFast} {
			out[fmt.Sprintf("%s codec %d", name, codec)] = encoded(t, tab, codec)
		}
	}
	for _, name := range []string{"members-delta", "members-gorilla", "members-strided"} {
		enc, err := os.ReadFile(filepath.Join("testdata", name+".spwr"))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = enc
	}
	return out
}

// TestWindowedDecodeMatchesReference reads every partition through sources
// that hand bufio one byte, half a request, and the last bytes together with
// io.EOF, and re-framed so that the inflater hands on one byte, or three, a
// Read: the window under the varint walk is then a single byte (every value
// takes the edge path), or ends mid-varint at shifting offsets, and the
// values must still be the reference's.
func TestWindowedDecodeMatchesReference(t *testing.T) {
	for name, enc := range deltaPartitions(t, 0) {
		for sname, src := range map[string]source{
			"plain": plainReader, "one byte": oneByte, "half": halfReads, "data+EOF": dataWithEOF,
		} {
			if err := sameDecode(t, name+" through "+sname, enc, src); err != nil {
				t.Errorf("%s: reference failed on an intact partition: %v", name, err)
			}
		}
		header, dir, sections := splitMembers(t, enc)
		for _, flush := range []int{1, 3} {
			what := fmt.Sprintf("%s inflated %d bytes a Read", name, flush)
			if err := sameDecode(t, what, frameMembers(t, header, dir, sections, flush), plainReader); err != nil {
				t.Errorf("%s: reference failed on an intact partition: %v", what, err)
			}
		}
	}
}

// cutSections calls each with enc re-framed once for every byte offset of
// every column's section: that section cut there and gzipped into a member
// with an intact trailer, whose size the directory states. The member then
// ends cleanly — io.EOF, not a broken deflate stream — partway through its
// column. The other members keep enc's bytes.
func cutSections(t testing.TB, enc []byte, each func(what string, framed []byte)) {
	t.Helper()
	header, dir, sections := splitMembers(t, enc)
	zw := gzip.NewWriter(io.Discard)
	gz := func(dst *bytes.Buffer, extra, payload []byte) {
		zw.Reset(dst)
		zw.Extra = extra
		if _, err := zw.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	members := make([][]byte, len(sections))
	at := int64(len(enc))
	for i := len(members) - 1; i >= 0; i-- {
		at -= dir.cols[i].size
		members[i] = enc[at : at+dir.cols[i].size]
	}
	var framed, cutMember bytes.Buffer
	for i, section := range sections {
		size := dir.cols[i].size
		for cut := 0; cut < len(section); cut++ {
			cutMember.Reset()
			gz(&cutMember, nil, section[:cut])
			dir.cols[i].size = int64(cutMember.Len())
			extra, err := dir.encode()
			if err != nil {
				t.Fatal(err)
			}
			framed.Reset()
			gz(&framed, extra, header)
			for j, m := range members {
				if j == i {
					m = cutMember.Bytes()
				}
				framed.Write(m)
			}
			each(fmt.Sprintf("column %q cut at %d of %d", dir.cols[i].Name, cut, len(section)), framed.Bytes())
		}
		dir.cols[i].size = size
	}
}

// TestWindowedDecodeTruncation cuts every partition at every byte offset, and
// every column's gunzipped section at every byte offset under an intact
// member trailer and directory. Each cut must be an error — never a panic,
// never a short column — and the same error the byte-at-a-time read reports.
// A cut after member 0 names the column whose member it falls in, and one
// inside a generated partition's compressed values names the row too; a cut
// section names column and row for nearly every offset, as a cut of the
// gunzipped stream did.
func TestWindowedDecodeTruncation(t *testing.T) {
	for name, enc := range deltaPartitions(t, 250) {
		sr, err := NewReader(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		named, cuts := 0, 0
		for cut := 0; cut < len(enc); cut++ {
			what := fmt.Sprintf("%s cut at %d of %d", name, cut, len(enc))
			err := sameDecode(t, what, enc[:cut], plainReader)
			if err == nil {
				t.Fatalf("%s: decoded without error", what)
			}
			sameDecode(t, what+" (one byte)", enc[:cut], oneByte)
			if int64(cut) < sr.next {
				continue
			}
			if !strings.Contains(err.Error(), `column "`) {
				t.Errorf("%s: %v names no column", what, err)
			}
			cuts++
			if strings.Contains(err.Error(), " row ") {
				named++
			}
		}
		// The rest fall in a member's gzip header or trailer, in the bytes
		// before its first value, or after its last, which the column's
		// name places well enough.
		if strings.HasPrefix(name, "generated") && named < cuts*3/4 {
			t.Errorf("%s: only %d of %d cuts past member 0 named a row", name, named, cuts)
		}

		if strings.HasSuffix(name, fmt.Sprintf("codec %d", CodecDeltaFast)) {
			continue // the same sections as under CodecDelta, deflated faster
		}
		named, cuts = 0, 0
		cutSections(t, enc, func(what string, framed []byte) {
			what = name + " " + what
			err := sameDecode(t, what, framed, plainReader)
			if err == nil {
				t.Fatalf("%s: decoded without error", what)
			}
			sameDecode(t, what+" (one byte)", framed, oneByte)
			cuts++
			if strings.Contains(err.Error(), `column "`) && strings.Contains(err.Error(), " row ") {
				named++
			}
		})
		if strings.HasPrefix(name, "generated") && named < cuts*9/10 {
			t.Errorf("%s: only %d of %d section cuts named a column and row", name, named, cuts)
		}
	}
}

// TestWindowedDecodeRejectsOverlongVarint: eleven continuation bytes are not
// a value under any reading; Column refuses them by column and row, whether
// the window holds them all or one byte at a time.
func TestWindowedDecodeRejectsOverlongVarint(t *testing.T) {
	header, dir, sections := splitMembers(t, encoded(t, &Table{Cols: []Column{{Name: "v", Ints: []int64{7, 8, 9}}}}, CodecDelta))
	v := sections[0][:len(sections[0])-2] // keep row 0, replace rows 1 and 2
	v = append(v, bytes.Repeat([]byte{0x80}, 11)...)
	sections[0] = append(v, 0x00, 0x00)
	for _, flush := range []int{0, 1} {
		enc := frameMembers(t, header, dir, sections, flush)
		for sname, src := range map[string]source{"plain": plainReader, "one byte": oneByte} {
			err := sameDecode(t, sname, enc, src)
			if err == nil || !strings.Contains(err.Error(), `column "v" row 1`) || !strings.Contains(err.Error(), "overflow") {
				t.Errorf("%s, inflated %d bytes a Read: Column error %v, want an overflow at column \"v\" row 1", sname, flush, err)
			}
		}
	}
}

// TestSkipLandsWhereColumnDoes: stepping past columns must leave the reader
// at the member decoding them would — each column is decoded after skipping
// all before it and checked against the reference, then everything after it
// is skipped to a clean io.EOF.
func TestSkipLandsWhereColumnDoes(t *testing.T) {
	for name, enc := range deltaPartitions(t, 0) {
		want, err := decodeMembers(enc, plainReader, refColumn)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []source{plainReader, oneByte} {
			for keep := range want {
				r, err := NewReader(src(bytes.NewReader(enc)))
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

// FuzzReadDelta holds the windowed walk to the reference on arbitrary column
// members: the fuzzer picks the row count, the column's kind byte, its
// stride and the bytes after its header, which the harness frames as a
// one-column CodecDelta partition whose directory agrees with the member.
// It is read from a whole-file source and through half-sized reads.
func FuzzReadDelta(f *testing.F) {
	for _, enc := range deltaPartitions(f, 300) {
		header, dir, sections := splitMembers(f, enc)
		if !Codec(header[len(magic)+1]).delta() {
			continue
		}
		for i, c := range dir.cols {
			// The member opens with the name's length, the name, the kind
			// byte and, strided, the stride.
			skip := len(appendUvarint(nil, uint64(len(c.Name)))) + len(c.Name) + 1
			if c.kind() == colFltStrided {
				skip += len(appendUvarint(nil, uint64(c.stride)))
			}
			vals := sections[i][skip:]
			f.Add(uint32(dir.rows), c.kind(), uint16(c.stride), vals)
			f.Add(uint32(dir.rows), c.kind(), uint16(c.stride), vals[:len(vals)*2/3])
		}
	}
	f.Fuzz(func(t *testing.T, rows uint32, kind byte, stride uint16, vals []byte) {
		kind %= colFltStrided + 1
		c := dirColumn{ColumnInfo: ColumnInfo{Name: "v", Int: kind == colInt, Str: kind == colStr}, stride: 1}
		member := []byte{1, 'v', kind}
		if kind == colFltStrided {
			c.stride, member = int(stride), appendUvarint(member, uint64(stride))
		}
		header := appendUvarint(append([]byte(magic), version, byte(CodecDelta), 1), uint64(rows))
		enc := frameMembers(t, header, &directory{rows: int(rows), cols: []dirColumn{c}}, [][]byte{append(member, vals...)}, 0)
		sameDecode(t, "plain", enc, plainReader)
		sameDecode(t, "half", enc, halfReads)
	})
}
