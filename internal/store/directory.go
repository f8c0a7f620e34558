package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// A partition is a run of gzip members: member 0 holds the table header, and
// each column's section follows in a member of its own. Gunzipped end to end
// they are one stream, the payload of format version 2 (3 with a string
// column), so `gunzip` and `gzip -t` read a partition as any gzip file.
// The directory below rides in the RFC 1952 extra field of member 0's gzip
// header — outside the payload, ahead of every compressed byte — so a reader
// learns the column inventory, the time span and where each column's member
// ends from the first bytes of the file. The values come from the members,
// never from the directory, but the members are found only through it: a
// partition without an intact directory is refused.

// directory is what member 0's gzip header says about the members after it.
type directory struct {
	rows int
	cols []dirColumn
}

// dirColumn is one column's directory entry.
type dirColumn struct {
	ColumnInfo
	size int64 // bytes of the column's gzip member, header and trailer included
	// stride is the column's predictor distance (Column.Stride): 1 but for
	// a strided float column, whose entry carries it after the size.
	stride int
	// Integer columns only: the value range (zeros for an empty column) and
	// whether the values are non-decreasing in row order.
	min, max int64
	sorted   bool
}

const (
	// The extra field holds one RFC 1952 subfield: two id bytes, a 16-bit
	// length, the directory body, the body's CRC32C.
	dirID1, dirID2 = 'S', 'P'
	dirSorted      = 0x80 // flag on a directory entry's kind byte
	maxExtra       = 1<<16 - 1
	// minMember is the smallest gzip member there is: ten header bytes, an
	// empty deflate stream, CRC-32 and length.
	minMember = 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// intStats is the directory's summary of one integer column.
func intStats(v []int64) (lo, hi int64, sorted bool) {
	c := dirColumn{sorted: true}
	c.summarize(v, 0, true)
	return c.min, c.max, c.sorted
}

// summarize folds an integer column's next values, which follow prev, into
// the entry's range and sorted flag; first says they start the column.
func (c *dirColumn) summarize(vals []int64, prev int64, first bool) {
	for i, v := range vals {
		if first && i == 0 {
			c.min, c.max, prev = v, v, v
		}
		c.min, c.max, c.sorted, prev = min(c.min, v), max(c.max, v), c.sorted && v >= prev, v
	}
}

// kind is the column's kind byte, in the directory and its section header.
func (c *dirColumn) kind() byte {
	switch {
	case c.Int:
		return colInt
	case c.Str:
		return colStr
	case c.stride > 1:
		return colFltStrided
	}
	return colFlt
}

// encode returns the gzip extra field carrying d, or an error when d does
// not fit the field's 16-bit length.
func (d *directory) encode() ([]byte, error) {
	b := []byte{dirID1, dirID2, 0, 0}
	b = appendUvarint(b, uint64(d.rows))
	b = appendUvarint(b, uint64(len(d.cols)))
	for _, c := range d.cols {
		b = appendUvarint(b, uint64(len(c.Name)))
		b = append(b, c.Name...)
		kind := c.kind()
		if c.sorted {
			kind |= dirSorted
		}
		b = append(b, kind)
		b = appendUvarint(b, uint64(c.size))
		if kind == colFltStrided {
			b = appendUvarint(b, uint64(c.stride))
		}
		if c.Int {
			b = appendUvarint(b, zigzag(c.min))
			b = appendUvarint(b, zigzag(c.max))
		}
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[4:], castagnoli))
	if len(b) > maxExtra {
		return nil, fmt.Errorf("store: the directory of %d columns is %d bytes, over the %d bytes a gzip extra field holds",
			len(d.cols), len(b)-4, maxExtra-4)
	}
	binary.LittleEndian.PutUint16(b[2:], uint16(len(b)-4))
	return b, nil
}

// parseDirectory decodes a gzip extra field. Anything but one intact
// directory — no field at all included — is an error.
func parseDirectory(extra []byte) (*directory, error) {
	if len(extra) == 0 {
		return nil, errors.New("store: no directory in member 0's gzip header")
	}
	if len(extra) < 8 || extra[0] != dirID1 || extra[1] != dirID2 ||
		int(binary.LittleEndian.Uint16(extra[2:])) != len(extra)-4 {
		return nil, errors.New("store: directory: not a directory subfield")
	}
	body, sum := extra[4:len(extra)-4], binary.LittleEndian.Uint32(extra[len(extra)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, errors.New("store: directory: CRC32C mismatch")
	}
	// The checksum held, so what follows guards against a writer this reader
	// does not understand, not against noise.
	bad := errors.New("store: directory: malformed")
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			return 0, false
		}
		body = body[n:]
		return v, true
	}
	rows, ok1 := uvarint()
	nCols, ok2 := uvarint()
	if !ok1 || !ok2 || rows > maxRows || nCols > maxCols {
		return nil, bad
	}
	d := &directory{rows: int(rows), cols: make([]dirColumn, 0, min(int(nCols), len(body)))}
	for i := uint64(0); i < nCols; i++ {
		n, ok := uvarint()
		if !ok || n > maxNameLen || uint64(len(body)) < n+1 {
			return nil, bad
		}
		c := dirColumn{ColumnInfo: ColumnInfo{Name: string(body[:n])}, stride: 1}
		kind := body[n]
		body = body[n+1:]
		c.sorted = kind&dirSorted != 0
		switch kind &^ dirSorted {
		case colInt:
			c.Int = true
		case colStr:
			c.Str = true
		case colFlt, colFltStrided:
		default:
			return nil, bad
		}
		size, ok := uvarint()
		if !ok || size < minMember || size > 1<<62 {
			return nil, bad
		}
		c.size = int64(size)
		if kind&^dirSorted == colFltStrided {
			stride, ok := uvarint()
			if !ok || checkStride(stride, d.rows) != nil {
				return nil, bad
			}
			c.stride = int(stride)
		}
		if c.Int {
			lo, ok1 := uvarint()
			hi, ok2 := uvarint()
			if !ok1 || !ok2 {
				return nil, bad
			}
			c.min, c.max = unzigzag(lo), unzigzag(hi)
		}
		d.cols = append(d.cols, c)
	}
	if len(body) != 0 {
		return nil, bad
	}
	return d, nil
}
