package store

import (
	"bufio"
	"cmp"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
)

// ColumnInfo describes one column of a table without its data.
type ColumnInfo struct {
	Name string
	Int  bool // integer-typed
	Str  bool // string-typed (neither set = float)
}

// Reader reads a table written by WriteCodec one column at a time, letting
// the caller decode or skip each column. This is the serving-path primitive:
// a query that touches two of fourteen columns allocates and retains only the
// two it asked for.
//
// A partition is read member by member, by the directory in member 0's gzip
// header: Next answers from the directory, Skip is a seek past the column's
// member, and a decoded column's member is read to its gzip trailer, so its
// CRC-32 and length have been checked when Column returns. A partition
// without an intact directory is refused by NewReader.
//
// Usage: NewReader, then repeat Next -> (Column | Skip) until Next returns
// io.EOF, then Close.
type Reader struct {
	zr    *gzip.Reader
	br    *bufio.Reader // the gunzipped member being read
	codec Codec
	nCols int
	nRows int

	read    int  // columns fully consumed
	pending bool // Next announced a column not yet consumed
	cur     ColumnInfo
	stride  int // cur's predictor distance (Column.Stride), at least 1

	dir  *directory     // member 0's, intact and agreeing with the header
	file countingReader // the source, counting what raw has taken from it
	raw  *bufio.Reader  // the compressed bytes under zr
	next int64          // offset of the next unread member, from where the source stood at NewReader

	payload []byte   // reused scratch for length-prefixed CodecGorilla payloads
	varints []uint64 // reused scratch of uvarints: one block of CodecDelta varints
	history []uint64 // reused scratch: the last stride values of a delta float column
}

// countingReader counts the bytes read through it: with raw's buffered count
// that is where in the file the next compressed byte comes from.
type countingReader struct {
	r io.ReadSeeker
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// NewReader parses member 0 — the directory in its gzip header, the table
// header in its payload — and positions the reader at the first column. It
// refuses a partition whose directory is missing, fails its CRC32C or
// disagrees with the header.
func NewReader(r io.ReadSeeker) (*Reader, error) {
	sr := &Reader{file: countingReader{r: r}}
	sr.raw = bufio.NewReader(&sr.file)
	zr, err := gzip.NewReader(sr.raw)
	if err != nil {
		return nil, fmt.Errorf("store: gzip: %w", err)
	}
	zr.Multistream(false)
	sr.zr = zr
	sr.dir, err = parseDirectory(zr.Extra)
	if err == nil {
		err = sr.readHeader()
	}
	if err == nil && (len(sr.dir.cols) != sr.nCols || sr.dir.rows != sr.nRows) {
		err = fmt.Errorf("store: directory lists %d columns x %d rows, header %d x %d",
			len(sr.dir.cols), sr.dir.rows, sr.nCols, sr.nRows)
	}
	if err == nil {
		// Member 0 holds the header and nothing else; the first column's
		// member starts wherever it ends.
		if sr.next, err = sr.endMember(); err != nil {
			err = fmt.Errorf("store: header: %w", err)
		}
	}
	if err != nil {
		_ = zr.Close()
		return nil, err
	}
	return sr, nil
}

// SeekCompanion moves r from the start of a partition file to the companion
// after its partition: member 0's end plus the member sizes in the
// partition's directory. Nothing after the partition is ErrNoCompanion.
func SeekCompanion(r io.ReadSeeker) error {
	sr, err := NewReader(r)
	if err != nil {
		return err
	}
	_ = sr.Close()
	end := sr.next
	for _, c := range sr.dir.cols {
		end += c.size
	}
	if size, err := r.Seek(0, io.SeekEnd); err != nil || end >= size {
		return cmp.Or(err, ErrNoCompanion)
	}
	_, err = r.Seek(end, io.SeekStart)
	return err
}

// readHeader parses the table header off member 0's payload, through the
// one bufio window every member is decoded through.
func (r *Reader) readHeader() error {
	br := bufio.NewReader(r.zr)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return fmt.Errorf("store: header: %w", err)
	}
	if string(head) != magic {
		return fmt.Errorf("store: bad magic %q", head)
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if ver != version && ver != versionStrings {
		return fmt.Errorf("store: unsupported version %d", ver)
	}
	codecByte, err := br.ReadByte()
	if err != nil {
		return err
	}
	codec := Codec(codecByte)
	if !codec.known() {
		return fmt.Errorf("store: unknown codec %d", codec)
	}
	nCols, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	nRows, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if nCols > maxCols || nRows > maxRows {
		return fmt.Errorf("store: implausible dimensions %d x %d", nCols, nRows)
	}
	r.br, r.codec, r.nCols, r.nRows = br, codec, int(nCols), int(nRows)
	return nil
}

// NumRows returns the row count declared in the header.
func (r *Reader) NumRows() int { return r.nRows }

// Next announces the next column's name and type, from the directory. It
// returns io.EOF after the last column. The caller must consume the column
// with Column or Skip before calling Next again.
func (r *Reader) Next() (ColumnInfo, error) {
	if r.pending {
		return ColumnInfo{}, fmt.Errorf("store: column %q not consumed", r.cur.Name)
	}
	if r.read >= r.nCols {
		return ColumnInfo{}, io.EOF
	}
	e := &r.dir.cols[r.read]
	r.cur, r.stride, r.pending = e.ColumnInfo, e.stride, true
	return r.cur, nil
}

// columnHeader reads the name, kind and (for a strided float column) stride
// that open a column's member. Errors name the column the directory
// announced.
func (r *Reader) columnHeader() (ColumnInfo, int, error) {
	fail := func(what string, err error) (ColumnInfo, int, error) {
		return ColumnInfo{}, 0, fmt.Errorf("store: column %q %s: %w", r.cur.Name, what, err)
	}
	nameLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fail("header", err)
	}
	if nameLen > maxNameLen {
		return fail("header", errors.New("name too long"))
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r.br, name); err != nil {
		return fail("name", err)
	}
	kind, err := r.br.ReadByte()
	if err != nil {
		return fail("kind", err)
	}
	stride := uint64(1)
	switch kind {
	case colInt, colFlt, colStr:
	case colFltStrided:
		if !r.codec.delta() {
			return fail("kind", fmt.Errorf("strided under codec %d", r.codec))
		}
		if stride, err = binary.ReadUvarint(r.br); err != nil {
			return fail("stride", err)
		}
		if err := checkStride(stride, r.nRows); err != nil {
			return fail("stride", err)
		}
	default:
		return fail("kind", fmt.Errorf("unknown column kind %d", kind))
	}
	return ColumnInfo{Name: string(name), Int: kind == colInt, Str: kind == colStr}, int(stride), nil
}

// checkStride refuses a stride no writer writes. It comes from the file, and
// the decoder allocates that many values of history for it.
func checkStride(stride uint64, rows int) error {
	if stride == 0 || stride > uint64(rows) || stride > MaxStride {
		return fmt.Errorf("stride %d outside 1..min(%d rows, %d)", stride, rows, MaxStride)
	}
	return nil
}

// position is the file offset of the next compressed byte.
func (r *Reader) position() int64 { return r.file.n - int64(r.raw.Buffered()) }

// begin readies the pending column's values for decoding: it opens the
// column's member, which has to start with the column the directory
// announced.
func (r *Reader) begin() error {
	if !r.pending {
		return fmt.Errorf("store: no column pending: call Next first")
	}
	err := r.zr.Reset(r.raw)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("store: column %q: gzip: %w", r.cur.Name, err)
	}
	r.zr.Multistream(false)
	r.br.Reset(r.zr)
	info, stride, err := r.columnHeader()
	if err != nil {
		return err
	}
	if info != r.cur || stride != r.stride {
		return fmt.Errorf("store: column %q: its member holds %+v at stride %d, the directory says %+v at stride %d",
			r.cur.Name, info, stride, r.cur, r.stride)
	}
	return nil
}

// end consumes the pending column once its values are decoded: its member
// must end here, pass its CRC-32 and length, and be as long as the
// directory says.
func (r *Reader) end() error {
	r.pending = false
	r.read++
	want := r.next + r.dir.cols[r.read-1].size
	at, err := r.endMember()
	if err == nil && at != want {
		err = fmt.Errorf("member ends at byte %d, the directory says %d", at, want)
	}
	r.next = want
	if err != nil {
		return fmt.Errorf("store: column %q: %w", r.cur.Name, err)
	}
	return nil
}

// endMember closes the member just read — its payload ends here, which is
// what makes gzip hold the bytes it inflated to the CRC-32 and length in the
// trailer — and returns the file offset the next member starts at.
func (r *Reader) endMember() (int64, error) {
	switch _, err := r.br.ReadByte(); err {
	case io.EOF:
	case nil:
		return 0, errors.New("payload continues past its last value")
	default:
		return 0, err
	}
	membersVerified.Add(1)
	return r.position(), nil
}

// Column decodes the values of the column last announced by Next.
func (r *Reader) Column() (*Column, error) {
	if err := r.begin(); err != nil {
		return nil, err
	}
	col := Column{Name: r.cur.Name}
	var err error
	switch {
	case r.cur.Int:
		col.Ints, err = r.decodeInts()
	case r.cur.Str:
		col.Strs, err = r.decodeStrs()
	default:
		col.Floats, err = r.decodeFloats()
	}
	if err != nil {
		return nil, err
	}
	return &col, r.end()
}

// Skip discards the column last announced by Next by moving past its
// member, undecoded and unverified.
func (r *Reader) Skip() error {
	if !r.pending {
		return fmt.Errorf("store: no column pending: call Next first")
	}
	size := r.dir.cols[r.read].size
	r.next += size
	if size <= int64(r.raw.Buffered()) {
		_, _ = r.raw.Discard(int(size)) // cannot fail
	} else {
		if _, err := r.file.r.Seek(r.next-r.file.n, io.SeekCurrent); err != nil {
			return fmt.Errorf("store: column %q: %w", r.cur.Name, err)
		}
		r.file.n = r.next
		r.raw.Reset(&r.file)
	}
	r.pending = false
	r.read++
	membersSkipped.Add(1)
	return nil
}

// maxPreallocRows bounds the rows allocated up front when decoding a
// column. The header's row count is attacker-controlled up to 2^32; a claim
// beyond this cap must surface as a decode error when the stream runs dry,
// not as a multi-gigabyte allocation.
const maxPreallocRows = 1 << 20

// blockRows is the block size columns are decoded in; small enough to live
// in cache, large enough to amortize the loop.
const blockRows = 4096

// uvarints reads the next n <= blockRows varints of the pending CodecDelta
// column — rows row, row+1, ... — into the reader's scratch. It is the one
// varint walk under the int and float decode loops. Values are
// decoded straight from the bytes bufio already holds (a one-byte value — a
// repeated reading, a steady cadence — by a compare, any other by one
// binary.Uvarint; one Discard per window) instead of through an interface
// ReadByte per byte; the value that straddles the window's edge, the end of
// the stream and an overlong varint are left to binary.ReadUvarint, which
// refills the window and words every error the way a byte-at-a-time read does.
func (r *Reader) uvarints(n, row int) ([]uint64, error) {
	if r.varints == nil {
		r.varints = make([]uint64, blockRows)
	}
	dst := r.varints[:n]
	for j := 0; j < n; {
		win, _ := r.br.Peek(r.br.Buffered())
		pos := 0
		for j < n && pos < len(win) {
			if b := win[pos]; b < 0x80 {
				dst[j] = uint64(b)
				pos++
				j++
				continue
			}
			u, sz := binary.Uvarint(win[pos:])
			if sz <= 0 {
				break
			}
			dst[j] = u
			pos += sz
			j++
		}
		_, _ = r.br.Discard(pos) // pos <= Buffered(): cannot fail
		if j == n {
			break
		}
		u, err := binary.ReadUvarint(r.br)
		if err != nil {
			return nil, fmt.Errorf("store: column %q row %d: %w", r.cur.Name, row+j, err)
		}
		dst[j] = u
		j++
	}
	return dst, nil
}

// payloadLen reads and validates the byte-length prefix of the pending
// CodecGorilla column against bound (the largest plausible payload for the
// declared row count — corrupt length claims must fail here, not allocate).
func (r *Reader) payloadLen(bound uint64) (int, error) {
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, fmt.Errorf("store: column %q payload length: %w", r.cur.Name, err)
	}
	if n > bound {
		return 0, fmt.Errorf("store: column %q payload length %d exceeds bound %d", r.cur.Name, n, bound)
	}
	return int(n), nil
}

// readPayload reads n bytes into the reader's reused scratch. Growth is
// chunked so a corrupt length claim on a truncated stream fails after at
// most one extra chunk instead of allocating the full claim up front.
func (r *Reader) readPayload(n int) ([]byte, error) {
	if cap(r.payload) >= n {
		buf := r.payload[:n]
		if _, err := io.ReadFull(r.br, buf); err != nil {
			return nil, fmt.Errorf("store: column %q payload: %w", r.cur.Name, err)
		}
		return buf, nil
	}
	const chunk = 1 << 20
	buf := r.payload[:0]
	for len(buf) < n {
		c := n - len(buf)
		if c > chunk {
			c = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(r.br, buf[start:]); err != nil {
			r.payload = buf[:0]
			return nil, fmt.Errorf("store: column %q payload: %w", r.cur.Name, err)
		}
	}
	r.payload = buf
	return buf, nil
}

func (r *Reader) decodeGorillaStrs() ([]string, error) {
	bound := uint64(r.nRows)*(maxStrLen+binary.MaxVarintLen64) + 16
	n, err := r.payloadLen(bound)
	if err != nil {
		return nil, err
	}
	payload, err := r.readPayload(n)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, min(r.nRows, maxPreallocRows))
	pos := 0
	for j := 0; j < r.nRows; j++ {
		l, sz := binary.Uvarint(payload[pos:])
		if sz <= 0 {
			return nil, fmt.Errorf("store: column %q row %d: bad string length", r.cur.Name, j)
		}
		pos += sz
		if l > maxStrLen {
			return nil, fmt.Errorf("store: column %q row %d: string too long (%d bytes)", r.cur.Name, j, l)
		}
		if uint64(len(payload)-pos) < l {
			return nil, fmt.Errorf("store: column %q row %d: string truncated", r.cur.Name, j)
		}
		out = append(out, string(payload[pos:pos+int(l)]))
		pos += int(l)
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("store: column %q: %d trailing payload bytes", r.cur.Name, len(payload)-pos)
	}
	return out, nil
}

func (r *Reader) decodeInts() ([]int64, error) { return r.decodeIntsInto(nil) }

// decodeIntsInto decodes the pending integer column into dst[:0], reusing
// its capacity when large enough (the iterator path's axis scratch). A whole
// column is the block decode with the output as its one block, so each
// format has a single decode loop; only a row count beyond maxPreallocRows
// is decoded through a small block and appended, so that a false claim
// fails when the stream runs dry instead of allocating up front.
func (r *Reader) decodeIntsInto(dst []int64) ([]int64, error) {
	out := dst[:0]
	if need := min(r.nRows, maxPreallocRows); cap(out) < need {
		out = make([]int64, 0, need)
	}
	if r.nRows <= cap(out) {
		out = out[:r.nRows]
		return out, r.intBlocks(out, func(int, []int64) error { return nil })
	}
	err := r.intBlocks(make([]int64, blockRows), func(_ int, vals []int64) error {
		out = append(out, vals...)
		return nil
	})
	return out, err
}

// decodeFloats is decodeIntsInto for the pending float column.
func (r *Reader) decodeFloats() ([]float64, error) {
	if r.nRows <= maxPreallocRows {
		out := make([]float64, r.nRows)
		return out, r.floatBlocks(out, func(int, []float64) error { return nil })
	}
	out := make([]float64, 0, maxPreallocRows)
	err := r.floatBlocks(make([]float64, blockRows), func(_ int, vals []float64) error {
		out = append(out, vals...)
		return nil
	})
	return out, err
}

func (r *Reader) decodeStrs() ([]string, error) {
	if r.codec == CodecGorilla {
		return r.decodeGorillaStrs()
	}
	out := make([]string, 0, min(r.nRows, maxPreallocRows))
	var buf []byte
	for j := 0; j < r.nRows; j++ {
		n, err := binary.ReadUvarint(r.br)
		if err != nil {
			return nil, fmt.Errorf("store: column %q row %d: %w", r.cur.Name, j, err)
		}
		if n > maxStrLen {
			return nil, fmt.Errorf("store: column %q row %d: string too long (%d bytes)", r.cur.Name, j, n)
		}
		if uint64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		b := buf[:n]
		if _, err := io.ReadFull(r.br, b); err != nil {
			return nil, fmt.Errorf("store: column %q row %d: %w", r.cur.Name, j, err)
		}
		out = append(out, string(b))
	}
	return out, nil
}

// Close releases the underlying gzip reader. It does not close the wrapped
// io.ReadSeeker.
func (r *Reader) Close() error { return r.zr.Close() }

// ReadColumns deserializes only the named columns of a table written by
// WriteCodec (nil selects every column, making it equivalent to Read).
// Requested names absent from the table are ignored; check the result with
// Col.
func ReadColumns(r io.ReadSeeker, names []string) (*Table, error) {
	sr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	defer sr.Close()
	var want map[string]bool
	if names != nil {
		want = make(map[string]bool, len(names))
		for _, n := range names {
			want[n] = true
		}
	}
	t := &Table{}
	for {
		info, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if want != nil && !want[info.Name] {
			if err := sr.Skip(); err != nil {
				return nil, err
			}
			continue
		}
		col, err := sr.Column()
		if err != nil {
			return nil, err
		}
		t.Cols = append(t.Cols, *col)
	}
	return t, t.Validate()
}

// DayMeta is the row-range metadata of one day partition: its shape, column
// inventory, and the time span covered by its time column. The query tier
// uses it to prune partitions without decoding them fully.
type DayMeta struct {
	Day     int
	Rows    int
	Columns []ColumnInfo
	// TimeColumn is the integer column the span was taken from ("" when
	// none of the candidates is present; then HasTime is false and the
	// partition cannot be pruned by time).
	TimeColumn       string
	HasTime          bool
	MinTime, MaxTime int64
	// TimeSorted reports that the time column is non-decreasing in row
	// order (true for an empty column), so a time range is one contiguous
	// row span a reader can find by binary search.
	TimeSorted bool
}

// DayMeta returns the metadata of the partition for the given day, from its
// directory: a read of the file's first bytes, nothing inflated but the
// header. timeCols lists the candidate time-column names; empty defaults to
// "timestamp". The partition's time column is the first integer column, in
// file order, that is one of them.
func (d *Dataset) DayMeta(day int, timeCols ...string) (DayMeta, error) {
	if len(timeCols) == 0 {
		timeCols = []string{"timestamp"}
	}
	return readDay(d, day, func(r io.ReadSeeker) (DayMeta, error) { return readDayMeta(r, day, timeCols) })
}

func readDayMeta(r io.ReadSeeker, day int, timeCols []string) (DayMeta, error) {
	sr, err := NewReader(r)
	if err != nil {
		return DayMeta{}, err
	}
	defer sr.Close()
	partitionsIndexed.Add(1)
	meta := DayMeta{Day: day, Rows: sr.NumRows()}
	for _, c := range sr.dir.cols {
		meta.Columns = append(meta.Columns, c.ColumnInfo)
		if meta.TimeColumn == "" && c.Int && slices.Contains(timeCols, c.Name) {
			meta.TimeColumn, meta.TimeSorted = c.Name, c.sorted
			meta.HasTime, meta.MinTime, meta.MaxTime = meta.Rows > 0, c.min, c.max
		}
	}
	return meta, nil
}

// Counters says how partitions have been read since the process started.
type Counters struct {
	PartitionsIndexed int64 // DayMeta answered from a directory
	MembersSkipped    int64 // columns stepped over by a seek
	MembersVerified   int64 // gzip members read to their trailer, CRC-32 and length checked
}

var partitionsIndexed, membersSkipped, membersVerified atomic.Int64

// Stats returns the process-wide read counters.
func Stats() Counters {
	return Counters{
		PartitionsIndexed: partitionsIndexed.Load(),
		MembersSkipped:    membersSkipped.Load(),
		MembersVerified:   membersVerified.Load(),
	}
}

// ReadDayColumns loads only the named columns of a day partition (nil loads
// all, like ReadDay).
func (d *Dataset) ReadDayColumns(day int, names []string) (*Table, error) {
	return readDay(d, day, func(r io.ReadSeeker) (*Table, error) { return ReadColumns(r, names) })
}
