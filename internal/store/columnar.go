// Package store implements the telemetry archive: a compact columnar table
// format with delta/XOR + varint encoding under gzip, and daily-partitioned
// dataset files. It stands in for the parquet archive of the paper's
// pipeline, whose lossless compression squeezed a 460k-metric/s stream to
// ~1 MB/s and a year of data to 8.5 TB.
package store

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
)

// Column is one named column of a table; at most one of Ints/Floats/Strs is
// set.
type Column struct {
	Name   string
	Ints   []int64
	Floats []float64
	Strs   []string
	// Stride is a float column's predictor distance under a delta codec:
	// each value is XORed with the one Stride rows before it, the first
	// Stride rows with zero; 0 and 1 both mean the previous row. Rows in
	// (time, node) order hold a node's value one window back at a stride of
	// the node count. Reads leave it 0: it says how the values were
	// encoded, not what they are.
	Stride int
}

// IsInt reports whether the column is integer-typed. A column with no slice
// set is treated as an empty float column.
func (c *Column) IsInt() bool { return c.Ints != nil }

// IsStr reports whether the column is string-typed.
func (c *Column) IsStr() bool { return c.Strs != nil }

// Len returns the row count of the column.
func (c *Column) Len() int {
	switch {
	case c.IsInt():
		return len(c.Ints)
	case c.IsStr():
		return len(c.Strs)
	}
	return len(c.Floats)
}

// Table is a set of equal-length columns.
type Table struct {
	Cols []Column
}

// NumRows returns the row count (0 for an empty table).
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// Col returns the column with the given name, or nil.
func (t *Table) Col(name string) *Column {
	for i := range t.Cols {
		if t.Cols[i].Name == name {
			return &t.Cols[i]
		}
	}
	return nil
}

// Validate checks that all columns have equal length and unique names, and
// that only a float column names a stride, at most MaxStride.
func (t *Table) Validate() error {
	seen := map[string]bool{}
	for i := range t.Cols {
		c := &t.Cols[i]
		if c.Name == "" {
			return fmt.Errorf("store: column %d unnamed", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("store: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
		typed := 0
		for _, set := range []bool{c.Ints != nil, c.Floats != nil, c.Strs != nil} {
			if set {
				typed++
			}
		}
		if typed > 1 {
			return fmt.Errorf("store: column %q has multiple types", c.Name)
		}
		if c.Len() != t.NumRows() {
			return fmt.Errorf("store: column %q has %d rows, want %d",
				c.Name, c.Len(), t.NumRows())
		}
		if c.Stride < 0 || c.Stride > 1 && (c.IsInt() || c.IsStr() || c.Stride > MaxStride) {
			return fmt.Errorf("store: column %q: stride %d is not a float column's 1..%d", c.Name, c.Stride, MaxStride)
		}
	}
	return nil
}

// stride is the predictor distance c is encoded with.
func (c *Column) stride() int { return max(c.Stride, 1) }

// Format constants. Tables holding only numeric columns are written as
// version 2, the format every earlier build of this repository reads; a
// table with at least one string column (e.g. the run-meta manifest's
// cluster/site identity) is written as version 3. The reader accepts both,
// so numeric archives stay byte-identical across the version bump.
const (
	magic          = "SPWR" // Summit PoWeR archive
	version        = 2
	versionStrings = 3
	colInt         = byte(0)
	colFlt         = byte(1)
	colStr         = byte(2)
	// colFltStrided is a delta float column whose stride is not 1: the
	// stride follows the kind byte as a uvarint. A build that predates it
	// refuses the column as an unknown kind.
	colFltStrided = byte(3)

	// maxStrLen bounds one string value, on both the write and the decode
	// side: the length prefix in a partition file is attacker-controlled,
	// and a single claimed multi-gigabyte value must fail cleanly.
	maxStrLen = 1 << 20
	// Bounds on what a header or a directory may claim.
	maxCols, maxRows, maxNameLen = 1 << 16, 1 << 32, 4096
)

// MaxStride is the largest stride a column may name. The stride is read from
// the file and sizes the decoder's history of that many values, so a reader
// refuses a larger one before allocating anything for it.
const MaxStride = 1 << 16

// Codec selects the column encoding and compression level. The default
// (CodecDelta) is what the pipeline uses. A codec's value is the byte in the
// table header; bytes 1 and 3 were fixed-width codecs that only partitions
// without a directory hold, and are refused.
type Codec uint8

// Codecs.
const (
	// CodecDelta: ints delta+zigzag+uvarint, floats XOR against the value
	// Column.Stride rows back (by default the previous row) + uvarint,
	// default gzip. The production choice for every dataset but node-power.
	CodecDelta Codec = 0
	// CodecDeltaFast: delta/XOR encoding with gzip.BestSpeed. node-power's
	// choice, with its float columns strided by the node count: the
	// same-node XOR leaves deflate little to find at level 6 that level 1
	// misses.
	CodecDeltaFast Codec = 2
	// CodecGorilla: ints delta-of-delta + zigzag + uvarint, floats Gorilla
	// XOR with leading/trailing-zero windows (bit-packed), gzip store mode —
	// the bit packing replaces deflate, so decode skips the inflate pass.
	// Every column payload carries a byte-length prefix. See gorilla.go.
	CodecGorilla Codec = 4
)

func (c Codec) delta() bool { return c == CodecDelta || c == CodecDeltaFast }

// known reports whether c is a codec this build writes and reads.
func (c Codec) known() bool { return c.delta() || c == CodecGorilla }

func (c Codec) gzipLevel() int {
	switch c {
	case CodecDeltaFast:
		return gzip.BestSpeed
	case CodecGorilla:
		return gzip.NoCompression
	default:
		return gzip.DefaultCompression
	}
}

// WriteCodec serializes the table: a PartitionWriter fed the whole table as
// its one block.
func WriteCodec(w io.Writer, t *Table, codec Codec) error {
	p, err := NewPartitionWriter(codec, t.Cols)
	if err == nil {
		err = p.append(t, true)
	}
	if err != nil {
		return err
	}
	return p.Close(w)
}

// PartitionWriter writes one partition whose rows arrive in blocks, framed as
// directory.go describes: a gzip member holding the table header, its gzip
// header carrying the directory, then one gzip member per column. A column's
// member is compressed into memory as its values arrive; the predictors, the
// Gorilla state and the directory's integer summary carry from block to
// block, so how the rows are cut into blocks moves no byte. The directory
// lists the members' lengths and precedes them, so Close writes everything.
// No clock or thread count is in reach: the same rows are the same bytes.
type PartitionWriter struct {
	codec Codec
	cols  []columnWriter
	rows  int
	zw    *gzip.Writer // a compressor no open member holds
	chunk []byte       // encoded bytes on their way into a member
	err   error        // the first failure; once closed, that it is
}

// columnWriter is one column's member and what its encoders keep of the rows
// before the current block.
type columnWriter struct {
	dirColumn               // size is set when the member closes
	zw        *gzip.Writer  // the open member
	out       spill         // the member's compressed bytes
	last      int64         // an integer column's previous value
	hist      []uint64      // a delta float column's last stride values' bits, a ring
	at        int           // hist's oldest slot
	gorilla   gorillaColumn // a CodecGorilla column's payload so far
}

// NewPartitionWriter starts a partition of the given columns: their names,
// types (the slice that is set, possibly empty) and strides.
func NewPartitionWriter(codec Codec, cols []Column) (*PartitionWriter, error) {
	if !codec.known() {
		return nil, fmt.Errorf("store: codec %d is not written", codec)
	}
	if err := (&Table{Cols: cols}).Validate(); err != nil {
		return nil, err
	}
	p := &PartitionWriter{codec: codec, cols: make([]columnWriter, len(cols))}
	for i := range cols {
		c, cw := &cols[i], &p.cols[i]
		if c.stride() > 1 && !codec.delta() {
			return nil, fmt.Errorf("store: column %q: stride %d needs a delta codec, not codec %d", c.Name, c.Stride, codec)
		}
		cw.ColumnInfo = ColumnInfo{Name: c.Name, Int: c.IsInt(), Str: c.IsStr()}
		cw.stride, cw.sorted, cw.hist = c.stride(), cw.Int, make([]uint64, c.stride())
	}
	return p, nil
}

// Append encodes block's rows as the partition's next rows. Its columns are
// the partition's, in order; an empty one may be untyped.
func (p *PartitionWriter) Append(block *Table) error { return p.append(block, false) }

// append is Append; last says no block follows, so each column's member is
// closed once its values are in and one compressor serves them all.
func (p *PartitionWriter) append(block *Table, last bool) error {
	n := block.NumRows()
	if len(block.Cols) != len(p.cols) && p.err == nil {
		p.err = fmt.Errorf("store: block has %d columns, the partition %d", len(block.Cols), len(p.cols))
	}
	for i := 0; p.err == nil && i < len(p.cols); i++ {
		c, cw := &block.Cols[i], &p.cols[i]
		if c.Name != cw.Name || c.Len() != n || n > 0 && (c.IsInt() != cw.Int || c.IsStr() != cw.Str) {
			p.err = fmt.Errorf("store: block column %d (%q, %d of %d rows) is not the partition's %q", i, c.Name, c.Len(), n, cw.Name)
		} else if p.err = p.add(cw, c); p.err == nil && last {
			p.err = p.closeMember(cw)
		}
	}
	p.rows += n
	return p.err
}

// add encodes c's values as cw's next ones, a block of rows at a time: into
// the open member or, for a Gorilla column, into the payload its member gets
// whole, behind its length, when it closes.
func (p *PartitionWriter) add(cw *columnWriter, c *Column) error {
	// An integer's delta is from the row before the block, zero at the first.
	prev, gorilla := cw.last, p.codec == CodecGorilla
	if cw.Int && len(c.Ints) > 0 {
		cw.summarize(c.Ints, prev, p.rows == 0)
		cw.last = c.Ints[len(c.Ints)-1]
	}
	if cw.zw == nil && !gorilla {
		if err := p.open(cw); err != nil {
			return err
		}
	}
	for j := 0; j < c.Len(); j += blockRows {
		b, k := p.chunk[:0], min(j+blockRows, c.Len())
		if gorilla {
			b = cw.gorilla.w.buf
		}
		switch {
		case cw.Str:
			// Length-prefixed raw bytes under every codec.
			for _, v := range c.Strs[j:k] {
				if len(v) > maxStrLen {
					return fmt.Errorf("store: column %q string value too long (%d bytes)", cw.Name, len(v))
				}
				b = append(appendUvarint(b, uint64(len(v))), v...)
			}
		case gorilla && cw.Int:
			b = cw.gorilla.ints(b, c.Ints[j:k])
		case gorilla:
			b = cw.gorilla.floats(b, c.Floats[j:k])
		case cw.Int:
			for _, v := range c.Ints[j:k] {
				b, prev = appendUvarint(b, zigzag(v-prev)), v
			}
		default:
			hist, at := cw.hist, cw.at
			for _, v := range c.Floats[j:k] {
				bits := math.Float64bits(v)
				b, hist[at] = appendUvarint(b, bits^hist[at]), bits
				if at++; at == len(hist) {
					at = 0
				}
			}
			cw.at = at
		}
		if gorilla {
			cw.gorilla.w.buf = b
			continue
		}
		p.chunk = b
		if _, err := cw.zw.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// member readies the gzip member that compresses into dst, on the
// compressor no open member holds.
func (p *PartitionWriter) member(dst io.Writer) (zw *gzip.Writer, err error) {
	if zw, p.zw = p.zw, nil; zw == nil {
		return gzip.NewWriterLevel(dst, p.codec.gzipLevel())
	}
	zw.Reset(dst)
	return zw, nil
}

// open starts cw's member with the column's section header: its name, kind
// and, when strided, its stride.
func (p *PartitionWriter) open(cw *columnWriter) (err error) {
	if cw.zw, err = p.member(&cw.out); err != nil {
		return err
	}
	b := append(appendUvarint(p.chunk[:0], uint64(len(cw.Name))), cw.Name...)
	if b = append(b, cw.kind()); cw.kind() == colFltStrided {
		b = appendUvarint(b, uint64(cw.stride))
	}
	p.chunk = b
	_, err = cw.zw.Write(b)
	return err
}

// closeMember finishes cw's member, opening it if no value did, and hands its
// compressor on.
func (p *PartitionWriter) closeMember(cw *columnWriter) error {
	if cw.zw == nil {
		if err := p.open(cw); err != nil {
			return err
		}
	}
	if p.codec == CodecGorilla {
		payload := cw.gorilla.w.finish()
		if _, err := cw.zw.Write(append(appendUvarint(p.chunk[:0], uint64(len(payload))), payload...)); err != nil {
			return err
		}
	}
	if err := cw.zw.Close(); err != nil {
		return err
	}
	cw.size, p.zw, cw.zw = cw.out.n, cw.zw, nil
	return nil
}

// Close finishes every member and writes the partition to w: member 0 — the
// table header, its gzip header carrying the directory — then the column
// members, each let go once written. A directory too large for the gzip
// header is an error before any byte reaches w. The writer is spent after it.
func (p *PartitionWriter) Close(w io.Writer) error {
	if p.err != nil {
		return p.err
	}
	p.err = errors.New("store: partition writer already closed")
	dir := directory{rows: p.rows, cols: make([]dirColumn, len(p.cols))}
	ver := uint64(version)
	for i := range p.cols {
		cw := &p.cols[i]
		if cw.stride > max(p.rows, 1) {
			return fmt.Errorf("store: column %q: stride %d is beyond its %d rows", cw.Name, cw.stride, p.rows)
		}
		if cw.size == 0 {
			if err := p.closeMember(cw); err != nil {
				return err
			}
		}
		if dir.cols[i] = cw.dirColumn; cw.Str {
			ver = versionStrings
		}
	}
	extra, err := dir.encode()
	if err != nil {
		return err
	}
	zw, err := p.member(w)
	if err != nil {
		return err
	}
	zw.Extra = extra
	b := append(appendUvarint(append(p.chunk[:0], magic...), ver), byte(p.codec))
	if _, err := zw.Write(appendUvarint(appendUvarint(b, uint64(len(p.cols))), uint64(p.rows))); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	for i := range p.cols {
		for k, chunk := range p.cols[i].out.chunks {
			if _, err := w.Write(chunk); err != nil {
				return err
			}
			p.cols[i].out.chunks[k] = nil
		}
	}
	return nil
}

// spill is where a PartitionWriter holds a compressed column member: a list
// of chunks that are filled once and never copied, so holding a partition
// costs its size — not the doublings of one growing slice, which at a 7 MB
// day were 20 MB allocated and 50 MB of summitsim's peak RSS.
type spill struct {
	chunks [][]byte
	n      int64 // bytes held
}

func (s *spill) Write(p []byte) (int, error) {
	for rest := p; len(rest) > 0; {
		if k := len(s.chunks) - 1; k < 0 || len(s.chunks[k]) == cap(s.chunks[k]) {
			// Each chunk is as large as all before it, up to 1 MB.
			s.chunks = append(s.chunks, make([]byte, 0, min(max(s.n, 4096), 1<<20)))
		}
		last := &s.chunks[len(s.chunks)-1]
		k := copy((*last)[len(*last):cap(*last)], rest)
		*last = (*last)[:len(*last)+k]
		rest = rest[k:]
	}
	s.n += int64(len(p))
	return len(p), nil
}

// Read deserializes a table written by WriteCodec. It is ReadColumns with
// every column selected; the Reader in reader.go is the single decode path.
func Read(r io.ReadSeeker) (*Table, error) {
	return ReadColumns(r, nil)
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
