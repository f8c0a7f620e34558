package store

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// gorillaRoundTrip writes tab with CodecGorilla and reads it back whole.
func gorillaRoundTrip(t *testing.T, tab *Table) *Table {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCodec(&buf, tab, CodecGorilla); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestGorillaFloatEdgeCases(t *testing.T) {
	cases := map[string][]float64{
		"specials":    {0, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e-300, 1e300, 5e-324},
		"constant":    {3.14, 3.14, 3.14, 3.14, 3.14},
		"alternating": {1, -1, 1, -1, 1, -1},
		"single":      {42.5},
		"zeros":       {0, 0, 0, 0},
		"ramp":        {1.0, 1.0000001, 1.0000002, 1.0000003},
		"widening":    {1, 1e300, 2, 1e-300, 3}, // forces repeated window renegotiation
		"narrow-wide": {1.5, 1.5000000001, -1e308, 1.5},
	}
	for name, vals := range cases {
		tab := &Table{Cols: []Column{{Name: "x", Floats: vals}}}
		got := gorillaRoundTrip(t, tab)
		for j, want := range vals {
			have := got.Cols[0].Floats[j]
			if math.Float64bits(want) != math.Float64bits(have) {
				t.Errorf("%s row %d: got bits %x want %x", name, j, math.Float64bits(have), math.Float64bits(want))
			}
		}
	}
}

func TestGorillaIntEdgeCases(t *testing.T) {
	cases := map[string][]int64{
		"cadence":    {0, 10, 20, 30, 40, 50}, // constant delta -> zero dods
		"single":     {-7},
		"extremes":   {math.MaxInt64, math.MinInt64, 0, math.MaxInt64},
		"jittery":    {100, 103, 101, 110, 90, 90},
		"descending": {50, 40, 30, 20},
	}
	for name, vals := range cases {
		tab := &Table{Cols: []Column{{Name: "x", Ints: vals}}}
		got := gorillaRoundTrip(t, tab)
		for j, want := range vals {
			if have := got.Cols[0].Ints[j]; have != want {
				t.Errorf("%s row %d: got %d want %d", name, j, have, want)
			}
		}
	}
}

func TestGorillaStringsAndMixed(t *testing.T) {
	tab := &Table{Cols: []Column{
		{Name: "timestamp", Ints: []int64{0, 10, 20}},
		{Name: "cluster", Strs: []string{"summit-0", "", "frontier-1"}},
		{Name: "power_w", Floats: []float64{1.5, 1.5, 2.25}},
	}}
	got := gorillaRoundTrip(t, tab)
	for i := range tab.Cols {
		want, have := &tab.Cols[i], got.Col(tab.Cols[i].Name)
		if have == nil {
			t.Fatalf("column %q missing", want.Name)
		}
		for j := 0; j < want.Len(); j++ {
			switch {
			case want.IsInt():
				if want.Ints[j] != have.Ints[j] {
					t.Errorf("col %q row %d int mismatch", want.Name, j)
				}
			case want.IsStr():
				if want.Strs[j] != have.Strs[j] {
					t.Errorf("col %q row %d str mismatch", want.Name, j)
				}
			default:
				if math.Float64bits(want.Floats[j]) != math.Float64bits(have.Floats[j]) {
					t.Errorf("col %q row %d float mismatch", want.Name, j)
				}
			}
		}
	}
}

func TestGorillaEmpty(t *testing.T) {
	tab := &Table{Cols: []Column{
		{Name: "i", Ints: []int64{}},
		{Name: "f", Floats: []float64{}},
		{Name: "s", Strs: []string{}},
	}}
	got := gorillaRoundTrip(t, tab)
	if got.NumRows() != 0 || len(got.Cols) != 3 {
		t.Errorf("shape = %d rows x %d cols", got.NumRows(), len(got.Cols))
	}
}

// TestGorillaColumnSelect pins the O(1) skip: a column-subset read under
// CodecGorilla must return exactly the requested columns with identical
// values, whatever mix of kinds surrounds them.
func TestGorillaColumnSelect(t *testing.T) {
	tab := sampleTable()
	var buf bytes.Buffer
	if err := WriteCodec(&buf, tab, CodecGorilla); err != nil {
		t.Fatal(err)
	}
	got, err := ReadColumns(bytes.NewReader(buf.Bytes()), []string{"timestamp", "gpu0_core_temp.mean"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cols) != 2 {
		t.Fatalf("got %d columns", len(got.Cols))
	}
	for j, want := range tab.Col("timestamp").Ints {
		if got.Col("timestamp").Ints[j] != want {
			t.Fatalf("timestamp row %d mismatch", j)
		}
	}
	for j, want := range tab.Col("gpu0_core_temp.mean").Floats {
		if math.Float64bits(got.Col("gpu0_core_temp.mean").Floats[j]) != math.Float64bits(want) {
			t.Fatalf("temp row %d mismatch", j)
		}
	}
}

// TestGorillaCompressionEffective: the bit-packed stream must compress the
// slowly-varying telemetry well below raw fixed-width size even with the
// gzip container in store mode.
func TestGorillaCompressionEffective(t *testing.T) {
	tab := sampleTable()
	raw := tab.NumRows() * (8 + 8 + 8)
	var buf bytes.Buffer
	if err := WriteCodec(&buf, tab, CodecGorilla); err != nil {
		t.Fatal(err)
	}
	if ratio := float64(buf.Len()) / float64(raw); ratio > 0.8 {
		t.Errorf("gorilla ratio = %.2f, want < 0.8 (%d of %d bytes)", ratio, buf.Len(), raw)
	}
}

// TestGorillaCorruptPayload flips and truncates the encoded stream and
// requires wrapped errors, never panics. The payload-length prefix is the
// main new attacker-controlled field.
func TestGorillaCorruptPayload(t *testing.T) {
	tab := fuzzSeedTable()
	var buf bytes.Buffer
	if err := WriteCodec(&buf, tab, CodecGorilla); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	// Truncations at every prefix length of the compressed stream.
	for n := 0; n < len(enc); n += 7 {
		_, _ = ReadColumns(bytes.NewReader(enc[:n]), nil)
		_, _ = ReadColumns(bytes.NewReader(enc[:n]), []string{"power_w"})
	}
	// Single-byte corruption across the stream: decode must either fail or
	// produce a self-consistent table (bit flips in value payloads are not
	// detectable, but must never crash or misallocate).
	for i := 0; i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if tbl, err := ReadColumns(bytes.NewReader(bad), nil); err == nil {
			if err := tbl.Validate(); err != nil {
				t.Fatalf("flip at %d: inconsistent table: %v", i, err)
			}
		}
	}
}

// wholeIF reads columns "i" (integer) and "f" (numeric, widened) the
// whole-column way — Reader.Column on each — stopping, like the block
// iterator, as soon as it has both.
func wholeIF(data []byte) (ints []int64, floats []float64, err error) {
	sr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	defer sr.Close()
	haveI, haveF := false, false
	for !haveI || !haveF {
		info, err := sr.Next()
		if err != nil {
			return nil, nil, err
		}
		isI, isF := info.Name == "i" && !haveI, info.Name == "f" && !haveF
		if !isI && !isF {
			if err := sr.Skip(); err != nil {
				return nil, nil, err
			}
			continue
		}
		if (isI && !info.Int) || info.Str {
			return nil, nil, fmt.Errorf("column %q has the wrong type", info.Name)
		}
		col, err := sr.Column()
		if err != nil {
			return nil, nil, err
		}
		if isI {
			ints, haveI = col.Ints, true
			continue
		}
		floats, haveF = col.Floats, true
		for _, v := range col.Ints {
			floats = append(floats, float64(v))
		}
	}
	return ints, floats, nil
}

// checkWholeVsBlocks decodes data the whole-column way and through the block
// iterator: both must fail, or both succeed with bit-identical values.
func checkWholeVsBlocks(t *testing.T, what string, data []byte) {
	t.Helper()
	ints, floats, werr := wholeIF(data)
	var sc IterScratch
	var got []float64
	_, berr := iterColumns(bytes.NewReader(data), []string{"i"}, "f", &sc, func(start int, vals []float64) error {
		if start != len(got) {
			return fmt.Errorf("block start %d, want %d", start, len(got))
		}
		got = append(got, vals...)
		return nil
	})
	if (werr == nil) != (berr == nil) {
		t.Fatalf("%s: whole-column read: %v; block read: %v", what, werr, berr)
	}
	if werr != nil {
		return
	}
	if d := diffColumn(&Column{Name: "i", Ints: ints}, &Column{Name: "i", Ints: sc.Axes[0]}); d != "" {
		t.Fatalf("%s: block read diverges: %s", what, d)
	}
	if d := diffColumn(&Column{Name: "f", Floats: floats}, &Column{Name: "f", Floats: got}); d != "" {
		t.Fatalf("%s: block read diverges: %s", what, d)
	}
}

// FuzzCodecRoundTrip drives the encoder itself with arbitrary values and
// requires a lossless round trip under every codec — the complement of
// FuzzReadDayColumns, which fuzzes the decoder with arbitrary bytes. Every
// encoding, one truncation and one bit flip of it (placed by the inputs) are
// also decoded both whole-column and block-wise, which must agree.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(int64(0), int64(10), uint64(0x3ff0000000000000), uint64(0x3ff0000000000001), "a")
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), uint64(0), uint64(0xffffffffffffffff), "")
	f.Add(int64(1577836800), int64(-3), math.Float64bits(math.NaN()), math.Float64bits(1e-300), "cluster-0")
	f.Fuzz(func(t *testing.T, i0, i1 int64, f0, f1 uint64, s string) {
		if len(s) > maxStrLen {
			t.Skip()
		}
		tab := &Table{Cols: []Column{
			{Name: "i", Ints: []int64{i0, i1, i0 + i1&0xffff, i0}},
			{Name: "f", Floats: []float64{math.Float64frombits(f0), math.Float64frombits(f1), math.Float64frombits(f0), math.Float64frombits(f0 ^ f1)}},
			{Name: "s", Strs: []string{s, "", s + "x", s}},
		}}
		for _, codec := range writtenCodecs {
			var buf bytes.Buffer
			if err := WriteCodec(&buf, tab, codec); err != nil {
				t.Fatalf("codec %d write: %v", codec, err)
			}
			enc := buf.Bytes()
			flipped := append([]byte(nil), enc...)
			flipped[f0%uint64(len(enc))] ^= 1 << (f1 % 8)
			checkWholeVsBlocks(t, fmt.Sprintf("codec %d", codec), enc)
			checkWholeVsBlocks(t, fmt.Sprintf("codec %d truncated", codec), enc[:uint64(i0)%uint64(len(enc))])
			checkWholeVsBlocks(t, fmt.Sprintf("codec %d bit-flipped", codec), flipped)
			got, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("codec %d read: %v", codec, err)
			}
			for c := range tab.Cols {
				if d := diffColumn(&tab.Cols[c], &got.Cols[c]); d != "" {
					t.Fatalf("codec %d: %s", codec, d)
				}
			}
		}
	})
}
