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
	}
	return nil
}

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

	// maxStrLen bounds one string value, on both the write and the decode
	// side: the length prefix in a partition file is attacker-controlled,
	// and a single claimed multi-gigabyte value must fail cleanly.
	maxStrLen = 1 << 20
)

// Codec selects the column encoding and compression level. The default
// (CodecDelta) is what the pipeline uses; the others exist for the
// compression ablation benchmarks and for interoperability tests.
type Codec uint8

// Codecs.
const (
	// CodecDelta: ints delta+zigzag+uvarint, floats XOR-prev+uvarint,
	// default gzip. The production choice.
	CodecDelta Codec = iota
	// CodecRaw: fixed-width little-endian values, default gzip.
	CodecRaw
	// CodecDeltaFast: delta/XOR encoding with gzip.BestSpeed.
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

// Write serializes the table with the default codec: gzip(header +
// per-column encoded data). Integer columns are delta + zigzag + uvarint;
// float columns are XOR with the previous value + uvarint (a simplified
// Gorilla scheme), which compresses the slowly-changing telemetry well.
func Write(w io.Writer, t *Table) error {
	return WriteCodec(w, t, CodecDelta)
}

// WriteCodec serializes the table with an explicit codec.
func WriteCodec(w io.Writer, t *Table, codec Codec) error {
	if codec >= numCodecs {
		return fmt.Errorf("store: unknown codec %d", codec)
	}
	if err := t.Validate(); err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(w, codec.gzipLevel())
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(zw)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	ver := uint64(version)
	for i := range t.Cols {
		if t.Cols[i].IsStr() {
			ver = versionStrings
			break
		}
	}
	if err := putUvarint(ver); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(codec)); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.Cols))); err != nil {
		return err
	}
	if err := putUvarint(uint64(t.NumRows())); err != nil {
		return err
	}
	var gorillaBuf []byte // reused payload scratch for CodecGorilla columns
	// A delta column's varints are appended to chunk and reach bw a block of
	// rows at a time instead of one Write per value; the byte stream, and with
	// it the deflate output, is the same.
	var chunk []byte
	for i := range t.Cols {
		c := &t.Cols[i]
		if err := putUvarint(uint64(len(c.Name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(c.Name); err != nil {
			return err
		}
		if codec == CodecGorilla {
			// Gorilla columns are encoded to a buffer first so the payload
			// can be length-prefixed (the basis of O(1) column skips).
			gorillaBuf = gorillaBuf[:0]
			switch {
			case c.IsStr():
				for _, v := range c.Strs {
					if len(v) > maxStrLen {
						return fmt.Errorf("store: column %q string value too long (%d bytes)", c.Name, len(v))
					}
					gorillaBuf = appendUvarint(gorillaBuf, uint64(len(v)))
					gorillaBuf = append(gorillaBuf, v...)
				}
				if err := bw.WriteByte(colStr); err != nil {
					return err
				}
			case c.IsInt():
				gorillaBuf = encodeGorillaInts(gorillaBuf, c.Ints)
				if err := bw.WriteByte(colInt); err != nil {
					return err
				}
			default:
				gorillaBuf = encodeGorillaFloats(gorillaBuf, c.Floats)
				if err := bw.WriteByte(colFlt); err != nil {
					return err
				}
			}
			if err := putUvarint(uint64(len(gorillaBuf))); err != nil {
				return err
			}
			if _, err := bw.Write(gorillaBuf); err != nil {
				return err
			}
			continue
		}
		if c.IsStr() {
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
				if err := putUvarint(uint64(len(v))); err != nil {
					return err
				}
				if _, err := bw.WriteString(v); err != nil {
					return err
				}
			}
		} else if c.IsInt() {
			if err := bw.WriteByte(colInt); err != nil {
				return err
			}
			if codec.delta() {
				prev := int64(0)
				for j := 0; j < len(c.Ints); j += blockRows {
					chunk = chunk[:0]
					for _, v := range c.Ints[j:min(j+blockRows, len(c.Ints))] {
						chunk = appendUvarint(chunk, zigzag(v-prev))
						prev = v
					}
					if _, err := bw.Write(chunk); err != nil {
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
		} else {
			if err := bw.WriteByte(colFlt); err != nil {
				return err
			}
			if codec.delta() {
				prev := uint64(0)
				for j := 0; j < len(c.Floats); j += blockRows {
					chunk = chunk[:0]
					for _, v := range c.Floats[j:min(j+blockRows, len(c.Floats))] {
						bits := math.Float64bits(v)
						chunk = appendUvarint(chunk, bits^prev)
						prev = bits
					}
					if _, err := bw.Write(chunk); err != nil {
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
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

// Read deserializes a table written by Write. It is ReadColumns with every
// column selected; the streaming Reader in reader.go is the single decode
// path.
func Read(r io.Reader) (*Table, error) {
	return ReadColumns(r, nil)
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
