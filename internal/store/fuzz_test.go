package store

import (
	"bytes"
	"testing"
)

// fuzzSeedTable builds a small but realistic day partition: an integer
// timestamp column at the archive's 10s cadence plus two float telemetry
// columns shaped like node power and water temperature.
func fuzzSeedTable() *Table {
	const n = 256
	ts := make([]int64, n)
	power := make([]float64, n)
	temp := make([]float64, n)
	for i := 0; i < n; i++ {
		ts[i] = int64(i * 10)
		power[i] = 8.5e6 + float64(i%32)*1e3
		temp[i] = 21.0 + float64(i%7)*0.25
	}
	return &Table{Cols: []Column{
		{Name: "timestamp", Ints: ts},
		{Name: "power_w", Floats: power},
		{Name: "mtw_supply_c", Floats: temp},
	}}
}

// FuzzReadDayColumns feeds arbitrary bytes through the full column-read
// path — directory and header parse, per-column decode, column-subset skip,
// the metadata read and the read of a companion after the partition — and
// requires malformed input to come back as errors, never panics or runaway
// allocations. The seed corpus is a genuinely encoded day under every codec,
// the fixture table's special floats and strings under both production
// codecs, the day's float columns strided under both delta codecs, and a day
// followed by a companion, plus truncated and bit-flipped variants so the
// fuzzer starts past the gzip and magic-number gates.
func FuzzReadDayColumns(f *testing.F) {
	add := func(enc []byte) {
		f.Add(append([]byte(nil), enc...))
		f.Add(append([]byte(nil), enc[:len(enc)/2]...))
		flipped := append([]byte(nil), enc...)
		flipped[len(flipped)/3] ^= 0xff
		f.Add(flipped)
	}
	seed := func(tab *Table, codec Codec) {
		var buf bytes.Buffer
		if err := WriteCodec(&buf, tab, codec); err != nil {
			f.Fatal(err)
		}
		add(buf.Bytes())
	}
	for _, codec := range writtenCodecs {
		seed(fuzzSeedTable(), codec)
	}
	seed(fixtureTable(), CodecDelta)
	seed(fixtureTable(), CodecGorilla)
	strided := fuzzSeedTable()
	strided.Cols[1].Stride, strided.Cols[2].Stride = 32, 7
	seed(strided, CodecDelta)
	seed(strided, CodecDeltaFast)
	var withCompanion bytes.Buffer
	for _, part := range []struct {
		tab   *Table
		codec Codec
	}{{strided, CodecDeltaFast}, {companionFixtureTable(), CodecGorilla}} {
		if err := WriteCodec(&withCompanion, part.tab, part.codec); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(withCompanion.Bytes())
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if tbl, err := ReadColumns(bytes.NewReader(data), nil); err == nil {
			// A table that decodes cleanly must also be self-consistent.
			if err := tbl.Validate(); err != nil {
				t.Fatalf("decoded table fails Validate: %v", err)
			}
		}
		_, _ = ReadColumns(bytes.NewReader(data), []string{"timestamp"})
		_, _ = readDayMeta(bytes.NewReader(data), 0, []string{"timestamp"})
		if br := bytes.NewReader(data); SeekCompanion(br) == nil {
			_, _ = ReadColumns(br, nil)
		}
	})
}
