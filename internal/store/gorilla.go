package store

import (
	"fmt"
	"math"
)

// CodecGorilla column payloads (this file) are the raw-speed encoding of the
// archive: integer columns store delta-of-delta zigzag uvarints and float
// columns store the Gorilla XOR scheme (Pelkonen et al., "Gorilla: a fast,
// scalable, in-memory time series database", VLDB 2015) with
// leading/trailing-zero windows, bit-packed. The container stays a gzip
// stream for format compatibility, but at store level (no compression), so
// the float stream is never deflate-coded: the bit packing *is* the
// compression, and decode cost is pure integer work instead of an inflate
// pass.
//
// Unlike the varint codecs, every CodecGorilla column payload is prefixed
// with its encoded byte length. The prefix stays because it is on disk: it
// bounds the payload before anything is allocated for it. Skipping a column
// goes through the directory's member sizes, as under every codec.

// gorillaMaxBytesPerValue bounds the encoded size of one float value: worst
// case is 2 control bits + 6 leading bits + 6 size bits + 64 payload bits
// < 10 bytes. The first value costs 8 bytes raw; +16 covers padding slack.
// Int delta-of-delta values are bounded by a 10-byte uvarint. Payload
// length claims beyond these bounds are rejected before any allocation.
const gorillaMaxBytesPerValue = 10

// --- bit writer ---

// bitWriter packs big-endian bits into a byte slice.
type bitWriter struct {
	buf  []byte
	cur  byte
	nCur uint // bits used in cur
}

func (w *bitWriter) writeBit(b uint64) {
	w.cur = w.cur<<1 | byte(b&1)
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// writeBits writes the low n bits of v, most significant first.
func (w *bitWriter) writeBits(v uint64, n uint) {
	for i := n; i > 0; i-- {
		w.writeBit(v >> (i - 1))
	}
}

// finish pads the last byte with zero bits and returns the payload.
func (w *bitWriter) finish() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.nCur))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// appendUvarint appends v as a uvarint without importing encoding/binary's
// scratch dance at every call site.
func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// gorillaColumn is a CodecGorilla column's payload as its values arrive:
// what the encoders keep of the values before carries from block to block.
type gorillaColumn struct {
	w bitWriter // the payload
	n int       // values encoded
	// prev is the previous value — a float's bits, an integer's two's
	// complement — and prevDelta an integer column's previous delta.
	prev      uint64
	prevDelta int64
	// lead/sig describe the previous meaningful-bit window; sig == 0 marks
	// "no window yet", forcing the first non-zero XOR to encode one.
	lead, sig uint
}

// floats appends vals to b, the payload, as the Gorilla XOR bit stream's
// next values; a partial last byte waits in g.
func (g *gorillaColumn) floats(b []byte, vals []float64) []byte {
	w := &g.w
	w.buf = b
	for _, v := range vals {
		bits := math.Float64bits(v)
		if g.n++; g.n == 1 {
			w.writeBits(bits, 64)
			g.prev = bits
			continue
		}
		xor := bits ^ g.prev
		g.prev = bits
		if xor == 0 {
			w.writeBit(0)
			continue
		}
		w.writeBit(1)
		l := uint(leadingZeros64(xor))
		if l > 63 {
			l = 63 // 6-bit field; xor != 0 so 63 leading zeros is the max anyway
		}
		t := uint(trailingZeros64(xor))
		s := 64 - l - t
		if g.sig > 0 && l >= g.lead && s <= g.sig && 64-g.lead-g.sig <= t {
			// Fits the previous window: reuse it.
			w.writeBit(0)
			w.writeBits(xor>>(64-g.lead-g.sig), g.sig)
			continue
		}
		g.lead, g.sig = l, s
		w.writeBit(1)
		w.writeBits(uint64(g.lead), 6)
		w.writeBits(uint64(g.sig-1), 6)
		w.writeBits(xor>>t, g.sig)
	}
	return w.buf
}

// ints appends vals to b, the payload, as the next delta-of-delta zigzag
// uvarints: the first value raw (zigzagged), then first-order deltas for row
// 1, then second-order deltas. Regular time axes (constant cadence) collapse
// to a run of zero bytes.
func (g *gorillaColumn) ints(b []byte, vals []int64) []byte {
	for _, v := range vals {
		d := v - int64(g.prev)
		switch g.n++; g.n {
		case 1:
			b = appendUvarint(b, zigzag(v))
		case 2:
			b = appendUvarint(b, zigzag(d))
		default:
			b = appendUvarint(b, zigzag(d-g.prevDelta))
		}
		g.prev, g.prevDelta = uint64(v), d
	}
	return b
}

// leadingZeros64 / trailingZeros64 mirror math/bits without the import (the
// annotated decode loops below must only call into allowlisted packages,
// and sharing one implementation keeps encode and decode in lockstep).
func leadingZeros64(x uint64) int {
	n := 0
	for b := uint(32); b > 0; b >>= 1 {
		if x>>(64-b-uint(n)) == 0 {
			n += int(b)
		}
	}
	if x == 0 {
		return 64
	}
	return n
}

func trailingZeros64(x uint64) int {
	if x == 0 {
		return 64
	}
	n := 0
	for x&1 == 0 {
		n++
		x >>= 1
	}
	return n
}

// --- decoders ---

// gorillaFloatDecoder streams float64 values back out of one column
// payload. It is constructed once per column (Reset) and decodes in blocks
// so the iterator path never materializes the full column.
type gorillaFloatDecoder struct {
	buf    []byte
	bit    int // absolute bit cursor into buf
	prev   uint64
	lead   uint
	sig    uint
	row    int // rows decoded so far
	failed bool
}

// Reset points the decoder at a fresh payload.
func (d *gorillaFloatDecoder) Reset(payload []byte) {
	*d = gorillaFloatDecoder{buf: payload}
}

// DecodeBlock decodes up to len(dst) values, returning how many were
// produced. It returns 0 at a clean end of stream and -1 on a truncated or
// corrupt payload; Err converts that state into an addressable error. The
// loop is the innermost hot path of every cold column read: it walks a
// byte slice with shifts and masks only, so it stays transitively
// allocation-free.
//
//lint:allocfree
func (d *gorillaFloatDecoder) DecodeBlock(dst []float64, total int) int {
	if d.failed {
		return -1
	}
	n := 0
	bit, buf := d.bit, d.buf
	limit := len(buf) * 8
	for n < len(dst) && d.row < total {
		if d.row == 0 {
			if bit+64 > limit {
				d.failed = true
				return -1
			}
			v := readBits(buf, bit, 64)
			bit += 64
			d.prev = v
			dst[n] = math.Float64frombits(v)
			n++
			d.row++
			continue
		}
		if bit >= limit {
			d.failed = true
			return -1
		}
		if readBits(buf, bit, 1) == 0 {
			// Repeat of the previous value.
			bit++
			dst[n] = math.Float64frombits(d.prev)
			n++
			d.row++
			continue
		}
		bit++
		if bit >= limit {
			d.failed = true
			return -1
		}
		if readBits(buf, bit, 1) == 1 {
			// New leading/size window.
			bit++
			if bit+12 > limit {
				d.failed = true
				return -1
			}
			d.lead = uint(readBits(buf, bit, 6))
			d.sig = uint(readBits(buf, bit+6, 6)) + 1
			bit += 12
		} else {
			bit++
			if d.sig == 0 {
				// Window reuse before any window was defined.
				d.failed = true
				return -1
			}
		}
		if d.lead+d.sig > 64 || bit+int(d.sig) > limit {
			d.failed = true
			return -1
		}
		xor := readBits(buf, bit, int(d.sig)) << (64 - d.lead - d.sig)
		bit += int(d.sig)
		d.prev ^= xor
		dst[n] = math.Float64frombits(d.prev)
		n++
		d.row++
	}
	d.bit = bit
	return n
}

// readBits extracts n (1..64) bits starting at absolute bit offset off,
// most significant first. Callers bound off+n by the buffer length.
//
//lint:allocfree
func readBits(buf []byte, off, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		b := off + i
		v = v<<1 | uint64(buf[b>>3]>>(7-uint(b&7))&1)
	}
	return v
}

// gorillaIntDecoder streams int64 values out of a delta-of-delta payload.
type gorillaIntDecoder struct {
	buf    []byte
	pos    int
	prev   int64
	delta  int64
	row    int
	failed bool
}

// Reset points the decoder at a fresh payload.
func (d *gorillaIntDecoder) Reset(payload []byte) {
	*d = gorillaIntDecoder{buf: payload}
}

// DecodeBlock decodes up to len(dst) values, returning the count, 0 at end
// of stream, or -1 on truncation/corruption. The uvarint walk is inlined so
// the loop touches nothing but the payload slice and its own state.
//
//lint:allocfree
func (d *gorillaIntDecoder) DecodeBlock(dst []int64, total int) int {
	if d.failed {
		return -1
	}
	n := 0
	pos, buf := d.pos, d.buf
	for n < len(dst) && d.row < total {
		var u uint64
		var shift uint
		ok := false
		for pos < len(buf) {
			b := buf[pos]
			pos++
			if shift == 63 && b > 1 {
				d.failed = true
				return -1 // uvarint overflows 64 bits
			}
			u |= uint64(b&0x7f) << shift
			if b < 0x80 {
				ok = true
				break
			}
			shift += 7
			if shift > 63 {
				d.failed = true
				return -1
			}
		}
		if !ok {
			d.failed = true
			return -1
		}
		v := int64(u>>1) ^ -int64(u&1) // unzigzag
		switch d.row {
		case 0:
			d.prev = v
		case 1:
			d.delta = v
			d.prev += v
		default:
			d.delta += v
			d.prev += d.delta
		}
		dst[n] = d.prev
		n++
		d.row++
	}
	d.pos = pos
	return n
}

// gorillaPayloadBound is the largest plausible payload for rows values;
// length claims beyond it are rejected before allocation.
func gorillaPayloadBound(rows int) uint64 {
	return uint64(rows)*gorillaMaxBytesPerValue + 16
}

// errTruncatedPayload builds the shared corrupt-payload error for a column.
func errTruncatedPayload(col string, row int) error {
	return fmt.Errorf("store: column %q row %d: gorilla payload truncated or corrupt", col, row)
}
