// Package store implements the telemetry archive: a compact columnar table
// format with delta/XOR + varint encoding under gzip, and daily-partitioned
// dataset files. It stands in for the parquet archive of the paper's
// pipeline, whose lossless compression squeezed a 460k-metric/s stream to
// ~1 MB/s and a year of data to 8.5 TB.
package store

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
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

// Validate checks that all columns have equal length and unique names.
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
		if c.Stride < 0 || c.Stride > 1 && (c.IsInt() || c.IsStr() || c.Stride > min(t.NumRows(), MaxStride)) {
			return fmt.Errorf("store: column %q: stride %d is not a float column's 1..min(%d rows, %d)",
				c.Name, c.Stride, t.NumRows(), MaxStride)
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
// (CodecDelta) is what the pipeline uses; the others exist for the
// compression ablation benchmarks and for interoperability tests.
type Codec uint8

// Codecs.
const (
	// CodecDelta: ints delta+zigzag+uvarint, floats XOR against the value
	// Column.Stride rows back (by default the previous row) + uvarint,
	// default gzip. The production choice for every dataset but node-power.
	CodecDelta Codec = iota
	// CodecRaw: fixed-width little-endian values, default gzip.
	CodecRaw
	// CodecDeltaFast: delta/XOR encoding with gzip.BestSpeed. node-power's
	// choice, with its float columns strided by the node count: the
	// same-node XOR leaves deflate little to find at level 6 that level 1
	// misses.
	CodecDeltaFast
	// CodecRawStore: fixed-width values, gzip store mode (no compression).
	CodecRawStore
	// CodecGorilla: ints delta-of-delta + zigzag + uvarint, floats Gorilla
	// XOR with leading/trailing-zero windows (bit-packed), gzip store mode —
	// the bit packing replaces deflate, so decode skips the inflate pass.
	// Every column payload carries a byte-length prefix, so readers skip
	// unwanted columns in O(1) instead of walking their varints. See
	// gorilla.go.
	CodecGorilla
	numCodecs
)

func (c Codec) delta() bool { return c == CodecDelta || c == CodecDeltaFast }

func (c Codec) gzipLevel() int {
	switch c {
	case CodecDeltaFast:
		return gzip.BestSpeed
	case CodecRawStore, CodecGorilla:
		return gzip.NoCompression
	default:
		return gzip.DefaultCompression
	}
}

// Write serializes the table with the default codec. Integer columns are
// delta + zigzag + uvarint; float columns are XOR with the previous value +
// uvarint (a simplified Gorilla scheme), which compresses the slowly-changing
// telemetry well.
func Write(w io.Writer, t *Table) error {
	return WriteCodec(w, t, CodecDelta)
}

// WriteCodec serializes the table with an explicit codec, framed as
// directory.go describes: a gzip member holding the table header, its gzip
// header carrying the directory, then one gzip member per column. The column
// members are compressed into memory first — the directory lists their
// lengths and precedes them — so one compressed partition is held before the
// first byte reaches w. Members are compressed one after another with no
// clock or thread count in reach, so the same table is the same bytes.
func WriteCodec(w io.Writer, t *Table, codec Codec) error {
	if codec >= numCodecs {
		return fmt.Errorf("store: unknown codec %d", codec)
	}
	if err := t.Validate(); err != nil {
		return err
	}
	for i := range t.Cols {
		if c := &t.Cols[i]; c.stride() > 1 && !codec.delta() {
			return fmt.Errorf("store: column %q: stride %d needs a delta codec, not codec %d", c.Name, c.Stride, codec)
		}
	}
	var columns spill
	zw, err := gzip.NewWriterLevel(&columns, codec.gzipLevel())
	if err != nil {
		return err
	}
	enc := encoder{bw: bufio.NewWriter(zw), codec: codec}
	member := func(dst io.Writer, extra []byte, payload func() error) error {
		zw.Reset(dst)
		zw.Extra = extra
		enc.bw.Reset(zw)
		if err := payload(); err != nil {
			return err
		}
		if err := enc.bw.Flush(); err != nil {
			return err
		}
		return zw.Close()
	}
	dir := directory{rows: t.NumRows(), cols: make([]dirColumn, len(t.Cols))}
	for i := range t.Cols {
		c, start := &t.Cols[i], columns.n
		if err := member(&columns, nil, func() error { return enc.column(c) }); err != nil {
			return err
		}
		e := &dir.cols[i]
		e.ColumnInfo = ColumnInfo{Name: c.Name, Int: c.IsInt(), Str: c.IsStr()}
		e.size, e.stride = columns.n-start, c.stride()
		if c.IsInt() {
			e.min, e.max, e.sorted = intStats(c.Ints)
		}
	}
	if err := member(w, dir.encode(), func() error { return enc.header(t) }); err != nil {
		return err
	}
	for _, chunk := range columns.chunks {
		if _, err := w.Write(chunk); err != nil {
			return err
		}
	}
	return nil
}

// spill is where WriteCodec holds the compressed column members: a list of
// chunks that are filled once and never copied, so holding a partition costs
// its size — not the doublings of one growing slice, which at a 7 MB day
// were 20 MB allocated and 50 MB of summitsim's peak RSS.
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

// encoder writes the pieces of a table's payload — the header, then each
// column's section — to bw. The payload is the format; how it is cut into
// gzip members is WriteCodec's business.
type encoder struct {
	bw      *bufio.Writer
	codec   Codec
	scratch [binary.MaxVarintLen64]byte
	gorilla []byte // reused payload scratch for CodecGorilla columns
	// A delta column's varints are appended to chunk and reach bw a block of
	// rows at a time instead of one Write per value.
	chunk []byte
}

func (e *encoder) putUvarint(v uint64) error {
	n := binary.PutUvarint(e.scratch[:], v)
	_, err := e.bw.Write(e.scratch[:n])
	return err
}

// header writes magic, version, codec and the table's dimensions.
func (e *encoder) header(t *Table) error {
	if _, err := e.bw.WriteString(magic); err != nil {
		return err
	}
	ver := uint64(version)
	for i := range t.Cols {
		if t.Cols[i].IsStr() {
			ver = versionStrings
			break
		}
	}
	if err := e.putUvarint(ver); err != nil {
		return err
	}
	if err := e.bw.WriteByte(byte(e.codec)); err != nil {
		return err
	}
	if err := e.putUvarint(uint64(len(t.Cols))); err != nil {
		return err
	}
	return e.putUvarint(uint64(t.NumRows()))
}

// column writes one column's section: name, kind, values.
func (e *encoder) column(c *Column) error {
	bw, codec := e.bw, e.codec
	if err := e.putUvarint(uint64(len(c.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(c.Name); err != nil {
		return err
	}
	if codec == CodecGorilla {
		// Gorilla columns are encoded to a buffer first so the payload
		// can be length-prefixed (what lets a streaming reader step over
		// one without decoding it).
		buf := e.gorilla[:0]
		kind := colFlt
		switch {
		case c.IsStr():
			kind = colStr
			for _, v := range c.Strs {
				if len(v) > maxStrLen {
					return fmt.Errorf("store: column %q string value too long (%d bytes)", c.Name, len(v))
				}
				buf = appendUvarint(buf, uint64(len(v)))
				buf = append(buf, v...)
			}
		case c.IsInt():
			kind = colInt
			buf = encodeGorillaInts(buf, c.Ints)
		default:
			buf = encodeGorillaFloats(buf, c.Floats)
		}
		e.gorilla = buf
		if err := bw.WriteByte(kind); err != nil {
			return err
		}
		if err := e.putUvarint(uint64(len(buf))); err != nil {
			return err
		}
		_, err := bw.Write(buf)
		return err
	}
	switch {
	case c.IsStr():
		// Strings are length-prefixed raw bytes under every codec:
		// there is no delta structure to exploit, and gzip already
		// folds repeated values.
		if err := bw.WriteByte(colStr); err != nil {
			return err
		}
		for _, v := range c.Strs {
			if len(v) > maxStrLen {
				return fmt.Errorf("store: column %q string value too long (%d bytes)", c.Name, len(v))
			}
			if err := e.putUvarint(uint64(len(v))); err != nil {
				return err
			}
			if _, err := bw.WriteString(v); err != nil {
				return err
			}
		}
	case c.IsInt():
		if err := bw.WriteByte(colInt); err != nil {
			return err
		}
		if codec.delta() {
			prev := int64(0)
			for j := 0; j < len(c.Ints); j += blockRows {
				e.chunk = e.chunk[:0]
				for _, v := range c.Ints[j:min(j+blockRows, len(c.Ints))] {
					e.chunk = appendUvarint(e.chunk, zigzag(v-prev))
					prev = v
				}
				if _, err := bw.Write(e.chunk); err != nil {
					return err
				}
			}
		} else {
			var raw [8]byte
			for _, v := range c.Ints {
				binary.LittleEndian.PutUint64(raw[:], uint64(v))
				if _, err := bw.Write(raw[:]); err != nil {
					return err
				}
			}
		}
	default:
		stride := c.stride()
		if stride == 1 {
			if err := bw.WriteByte(colFlt); err != nil {
				return err
			}
		} else {
			if err := bw.WriteByte(colFltStrided); err != nil {
				return err
			}
			if err := e.putUvarint(uint64(stride)); err != nil {
				return err
			}
		}
		if codec.delta() {
			for j := 0; j < len(c.Floats); j += blockRows {
				e.chunk = e.chunk[:0]
				for i := j; i < min(j+blockRows, len(c.Floats)); i++ {
					var prev uint64
					if i >= stride {
						prev = math.Float64bits(c.Floats[i-stride])
					}
					e.chunk = appendUvarint(e.chunk, math.Float64bits(c.Floats[i])^prev)
				}
				if _, err := bw.Write(e.chunk); err != nil {
					return err
				}
			}
		} else {
			var raw [8]byte
			for _, v := range c.Floats {
				binary.LittleEndian.PutUint64(raw[:], math.Float64bits(v))
				if _, err := bw.Write(raw[:]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Read deserializes a table written by Write. It is ReadColumns with every
// column selected; the streaming Reader in reader.go is the single decode
// path.
func Read(r io.Reader) (*Table, error) {
	return ReadColumns(r, nil)
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
