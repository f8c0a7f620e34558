package store

import (
	"fmt"
	"io"
	"math"
)

// This file is the streaming read path of the archive: a day partition is
// consumed column by column into reused scratch, with the value column
// delivered to the caller in row-order blocks *during* decode. Aggregating
// queries (rollups, downsamples, the analyses' series extraction) fold each
// block as it appears and never materialize a day table — no O(rows x cols)
// allocation, nothing retained, nothing for the cache to churn on.

// IterScratch holds the reusable buffers of streaming day reads. The zero
// value is ready to use; reuse one scratch across many IterDayColumns and
// ScanDay calls (it is not safe for concurrent use — give each worker its
// own).
type IterScratch struct {
	// Axes holds the axis columns of the current call, parallel to the axes
	// argument. Valid from the first fn callback until the next call on
	// this scratch; read-only (ScanDay points it at cache-resident columns).
	Axes [][]int64

	axbuf  [][]int64 // decode scratch behind Axes, capacity reused per axis
	seen   []bool
	iblock []int64
	fblock []float64
	fbuf   []float64
}

// reset sizes the scratch for a call reading n axes.
func (sc *IterScratch) reset(n int) {
	if cap(sc.Axes) < n {
		sc.Axes, sc.axbuf, sc.seen = make([][]int64, n), make([][]int64, n), make([]bool, n)
	}
	sc.Axes, sc.axbuf, sc.seen = sc.Axes[:n], sc.axbuf[:n], sc.seen[:n]
	clear(sc.seen)
}

// widen delivers the integer column src to fn as float64 blocks.
func (sc *IterScratch) widen(src []int64, fn func(start int, vals []float64) error) error {
	if sc.fblock == nil {
		sc.fblock = make([]float64, blockRows)
	}
	for start := 0; start < len(src); start += len(sc.fblock) {
		n := min(len(src)-start, len(sc.fblock))
		for j, v := range src[start : start+n] {
			sc.fblock[j] = float64(v)
		}
		if err := fn(start, sc.fblock[:n]); err != nil {
			return err
		}
	}
	return nil
}

// IterDayColumns streams the named numeric value column of one day
// partition in row-order blocks. The integer columns named in axes (the
// time axis, the node axis) are decoded whole into sc.Axes first; fn is
// then called with consecutive blocks of the value column, where start is
// the absolute row index of vals[0] (indexing straight into sc.Axes).
// Integer value columns are widened to float64. A non-nil error from fn
// aborts the read and is returned unwrapped.
//
// Everything handed to fn — vals and sc.Axes — is scratch, valid only for
// the current call; callers must fold, not retain.
//
// The returned count is the partition's declared row count (every axis and
// the value column decode to exactly that many rows).
func (d *Dataset) IterDayColumns(day int, axes []string, value string, sc *IterScratch, fn func(start int, vals []float64) error) (int, error) {
	return readDay(d, day, func(r io.ReadSeeker) (int, error) { return iterColumns(r, axes, value, sc, fn) })
}

func iterColumns(r io.ReadSeeker, axes []string, value string, sc *IterScratch, fn func(start int, vals []float64) error) (int, error) {
	sr, err := NewReader(r)
	if err != nil {
		return 0, err
	}
	defer sr.Close()
	sc.reset(len(axes))
	if sc.iblock == nil {
		sc.iblock = make([]int64, blockRows)
	}
	if sc.fblock == nil {
		sc.fblock = make([]float64, blockRows)
	}

	axesDone := 0
	valueDone := false
	deferred := false   // value decoded into fbuf before all axes were ready
	valueFromAxis := -1 // value column doubles as an axis
	for axesDone < len(axes) || !valueDone {
		info, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		ai := -1
		for k, name := range axes {
			if !sc.seen[k] && name == info.Name {
				ai = k
				break
			}
		}
		if ai >= 0 {
			if !info.Int {
				return 0, fmt.Errorf("store: axis column %q is not integer-typed", info.Name)
			}
			if sc.axbuf[ai], err = sr.columnIntsInto(sc.axbuf[ai]); err != nil {
				return 0, err
			}
			sc.Axes[ai], sc.seen[ai] = sc.axbuf[ai], true
			axesDone++
			if info.Name == value && !valueDone {
				valueFromAxis = ai
				valueDone = true
			}
			continue
		}
		if info.Name == value && !valueDone {
			if axesDone == len(axes) {
				// All axes decoded: stream the value column straight
				// through fn, block by block during decode.
				if err := sr.columnValueBlocks(sc.iblock, sc.fblock, fn); err != nil {
					return 0, err
				}
			} else {
				// The value column precedes an axis in file order: buffer
				// it and deliver once the axes are complete.
				sc.fbuf = sc.fbuf[:0]
				buffer := func(start int, vals []float64) error {
					sc.fbuf = append(sc.fbuf, vals...)
					return nil
				}
				if err := sr.columnValueBlocks(sc.iblock, sc.fblock, buffer); err != nil {
					return 0, err
				}
				deferred = true
			}
			valueDone = true
			continue
		}
		if err := sr.Skip(); err != nil {
			return 0, err
		}
	}
	for k, name := range axes {
		if !sc.seen[k] {
			return 0, fmt.Errorf("store: missing axis column %q", name)
		}
	}
	if !valueDone {
		return 0, fmt.Errorf("store: missing value column %q", value)
	}
	switch {
	case valueFromAxis >= 0:
		if err := sc.widen(sc.Axes[valueFromAxis], fn); err != nil {
			return 0, err
		}
	case deferred:
		if len(sc.fbuf) > 0 {
			if err := fn(0, sc.fbuf); err != nil {
				return 0, err
			}
		}
	}
	return sr.NumRows(), nil
}

// columnIntsInto decodes the pending integer column into dst[:0], reusing
// its capacity, and consumes it.
func (r *Reader) columnIntsInto(dst []int64) ([]int64, error) {
	if err := r.begin(); err != nil {
		return nil, err
	}
	if !r.cur.Int {
		return nil, fmt.Errorf("store: column %q is not integer-typed", r.cur.Name)
	}
	out, err := r.decodeIntsInto(dst)
	if err != nil {
		return nil, err
	}
	return out, r.end()
}

// columnValueBlocks streams the pending numeric column through fn as
// float64 blocks in row order (integer columns are widened), reusing
// iblock/fblock (equal lengths), and consumes it.
func (r *Reader) columnValueBlocks(iblock []int64, fblock []float64, fn func(start int, vals []float64) error) error {
	if err := r.begin(); err != nil {
		return err
	}
	if r.cur.Str {
		return fmt.Errorf("store: column %q is string-typed, not numeric", r.cur.Name)
	}
	var err error
	if r.cur.Int {
		err = r.intBlocks(iblock, func(start int, vals []int64) error {
			for j, v := range vals {
				fblock[j] = float64(v)
			}
			return fn(start, fblock[:len(vals)])
		})
	} else {
		err = r.floatBlocks(fblock, fn)
	}
	if err != nil {
		return err
	}
	return r.end()
}

// gorillaPayload reads the pending CodecGorilla numeric column's
// length-prefixed payload into the reader's scratch.
func (r *Reader) gorillaPayload() ([]byte, error) {
	n, err := r.payloadLen(gorillaPayloadBound(r.nRows))
	if err != nil {
		return nil, err
	}
	return r.readPayload(n)
}

// floatBlocks decodes the pending float column in blocks of len(block) — the
// one float decode loop of the Gorilla and delta codecs (NewReader refused
// any other). It does not consume the column; callers manage that state.
func (r *Reader) floatBlocks(block []float64, fn func(start int, vals []float64) error) error {
	var dec gorillaFloatDecoder
	var payload []byte
	if r.codec == CodecGorilla {
		var err error
		if payload, err = r.gorillaPayload(); err != nil {
			return err
		}
		dec.Reset(payload)
	}
	// A delta value is XORed with the one r.stride rows back: history holds
	// the last r.stride values, zeros before the first row, and at is where
	// the oldest of them sits. r.stride was checked when the column header
	// was read, before it sizes anything here.
	if cap(r.history) < r.stride {
		r.history = make([]uint64, r.stride)
	}
	history, at := r.history[:r.stride], 0
	clear(history)
	for start := 0; start < r.nRows; {
		n := min(r.nRows-start, len(block))
		if r.codec == CodecGorilla {
			if n = dec.DecodeBlock(block[:n], r.nRows); n <= 0 {
				return errTruncatedPayload(r.cur.Name, start)
			}
		} else {
			for j := 0; j < n; j += blockRows {
				raw, err := r.uvarints(min(n-j, blockRows), start+j)
				if err != nil {
					return err
				}
				for k, u := range raw {
					v := history[at] ^ u
					history[at] = v
					block[j+k] = math.Float64frombits(v)
					if at++; at == len(history) {
						at = 0
					}
				}
			}
		}
		if err := fn(start, block[:n]); err != nil {
			return err
		}
		start += n
	}
	if used := (dec.bit + 7) / 8; used != len(payload) {
		return fmt.Errorf("store: column %q: %d trailing payload bytes", r.cur.Name, len(payload)-used)
	}
	return nil
}

// intBlocks is floatBlocks for the pending integer column.
func (r *Reader) intBlocks(block []int64, fn func(start int, vals []int64) error) error {
	var dec gorillaIntDecoder
	var payload []byte
	if r.codec == CodecGorilla {
		var err error
		if payload, err = r.gorillaPayload(); err != nil {
			return err
		}
		dec.Reset(payload)
	}
	prev := int64(0)
	for start := 0; start < r.nRows; {
		n := min(r.nRows-start, len(block))
		if r.codec == CodecGorilla {
			if n = dec.DecodeBlock(block[:n], r.nRows); n <= 0 {
				return errTruncatedPayload(r.cur.Name, start)
			}
		} else {
			for j := 0; j < n; j += blockRows {
				raw, err := r.uvarints(min(n-j, blockRows), start+j)
				if err != nil {
					return err
				}
				for k, u := range raw {
					prev += unzigzag(u)
					block[j+k] = prev
				}
			}
		}
		if err := fn(start, block[:n]); err != nil {
			return err
		}
		start += n
	}
	if dec.pos != len(payload) {
		return fmt.Errorf("store: column %q: %d trailing payload bytes", r.cur.Name, len(payload)-dec.pos)
	}
	return nil
}
