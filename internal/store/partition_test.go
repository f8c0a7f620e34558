package store

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// splitTable is a seeded table of rows rows: a sorted time axis, unsorted
// ints reaching both ends of int64, floats among which NaN, ±Inf and -0
// recur, a flat float column and strings. A delta codec strides one float
// column.
func splitTable(rng *rand.Rand, rows int, codec Codec) *Table {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e-300}
	ts, ints := make([]int64, rows), make([]int64, rows)
	fs, flat, strs := make([]float64, rows), make([]float64, rows), make([]string, rows)
	for i := range ts {
		ts[i] = 1_577_836_800 + int64(i/36)*10
		ints[i] = rng.Int64() - math.MaxInt64/2
		if i%11 == 3 {
			ints[i] = []int64{math.MinInt64, math.MaxInt64, 0, -1}[i%4]
		}
		fs[i] = 1500 + 400*math.Sin(float64(i)/25) + rng.Float64()
		if rng.IntN(7) == 0 {
			fs[i] = specials[rng.IntN(len(specials))]
		}
		flat[i] = 0.5
		strs[i] = strings.Repeat("ü", rng.IntN(3)) + fmt.Sprint(i%5)
	}
	tab := &Table{Cols: []Column{
		{Name: "timestamp", Ints: ts}, {Name: "wide", Ints: ints},
		{Name: "power", Floats: fs}, {Name: "flat", Floats: flat}, {Name: "tag", Strs: strs},
	}}
	if codec.delta() && rows > 0 {
		tab.Cols[2].Stride = 1 + rng.IntN(min(rows, 40))
	}
	return tab
}

// rowRange is rows [a, b) of tab, its columns declared as tab's.
func rowRange(tab *Table, a, b int) *Table {
	out := &Table{Cols: make([]Column, len(tab.Cols))}
	for i, c := range tab.Cols {
		out.Cols[i] = Column{Name: c.Name, Stride: c.Stride}
		switch {
		case c.IsInt():
			out.Cols[i].Ints = c.Ints[a:b]
		case c.IsStr():
			out.Cols[i].Strs = c.Strs[a:b]
		default:
			out.Cols[i].Floats = c.Floats[a:b]
		}
	}
	return out
}

// TestAnySplitWritesTheSameBytes: a table fed to a PartitionWriter in blocks
// cut anywhere — empty blocks included — is the bytes WriteCodec writes of
// it whole: the predictors, the stride's ring, the Gorilla state and the
// directory's integer summary carry across every cut. Every written codec,
// with and without rows.
func TestAnySplitWritesTheSameBytes(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 7))
	for trial := 0; trial < 40; trial++ {
		rows := []int{0, 1, 2, 3, 37, 500, 2*blockRows + 3}[trial%7]
		for _, codec := range writtenCodecs {
			tab := splitTable(rng, rows, codec)
			want := encoded(t, tab, codec)
			p, err := NewPartitionWriter(codec, tab.Cols)
			if err != nil {
				t.Fatal(err)
			}
			var cuts []int
			for at := 0; at < rows || len(cuts) == 0; {
				n := rng.IntN(min(rows, 2*blockRows) + 1)
				if rng.IntN(4) == 0 {
					n = rng.IntN(3) // short blocks, and empty ones
				}
				n = min(n, rows-at)
				if err := p.Append(rowRange(tab, at, at+n)); err != nil {
					t.Fatal(err)
				}
				cuts, at = append(cuts, at+n), at+n
			}
			var got bytes.Buffer
			if err := p.Close(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("trial %d, codec %d, %d rows cut at %v: %d bytes, WriteCodec of the whole table %d", trial, codec, rows, cuts, got.Len(), len(want))
			}
		}
	}
}

// TestPartitionWriterRefusals: a block that is not the partition's shape, a
// stride beyond the rows written and a second Close are errors, and a writer
// that failed stays failed. Raw codecs are read, never written.
func TestPartitionWriterRefusals(t *testing.T) {
	cols := []Column{{Name: "t", Ints: []int64{}}, {Name: "v", Floats: []float64{}, Stride: 3}}
	for name, block := range map[string]*Table{
		"a column short":  {Cols: cols[:1]},
		"a renamed one":   {Cols: []Column{{Name: "t", Ints: []int64{1}}, {Name: "w", Floats: []float64{1}}}},
		"a retyped one":   {Cols: []Column{{Name: "t", Floats: []float64{1}}, {Name: "v", Floats: []float64{1}}}},
		"unequal lengths": {Cols: []Column{{Name: "t", Ints: []int64{1, 2}}, {Name: "v", Floats: []float64{1}}}},
	} {
		p, err := NewPartitionWriter(CodecDelta, cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Append(block); err == nil {
			t.Errorf("%s: appended", name)
		}
		if err := p.Append(&Table{Cols: []Column{{Name: "t", Ints: []int64{1}}, {Name: "v", Floats: []float64{1}}}}); err == nil {
			t.Errorf("%s: a good block appended after a refused one", name)
		}
	}
	p, err := NewPartitionWriter(CodecDelta, cols)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Append(&Table{Cols: []Column{{Name: "t", Ints: []int64{1, 2}}, {Name: "v", Floats: []float64{1, 2}}}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Close(&buf); err == nil || !strings.Contains(err.Error(), "stride") || buf.Len() > 0 {
		t.Errorf("stride 3 over 2 rows: %v, %d bytes written; want an error about the stride and nothing", err, buf.Len())
	}
	p, err = NewPartitionWriter(CodecGorilla, cols[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(&buf); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(&buf); err == nil {
		t.Error("closed twice")
	}
	for _, codec := range []Codec{1, 3, 5} {
		if _, err := NewPartitionWriter(codec, cols[:1]); err == nil {
			t.Errorf("codec %d: a writer", codec)
		}
	}
}
