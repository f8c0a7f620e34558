package store

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// writtenCodecs are the codecs WriteCodec writes; the reader decodes
// CodecRaw and CodecRawStore too.
var writtenCodecs = []Codec{CodecDelta, CodecDeltaFast, CodecGorilla}

// fixtureTable is the table behind testdata/codec{0..4}.spwr. Those files
// were written once, by the WriteCodec of the commit before the whole-column
// and block decoders were merged, and are never regenerated: they pin that
// bytes already on disk keep decoding to exactly these values.
func fixtureTable() *Table {
	return &Table{Cols: []Column{
		{Name: "timestamp", Ints: []int64{1577836800, 1577836810, 1577836820, 1577836820, 1577836840, 1577836830, 1577836900}},
		{Name: "count", Ints: []int64{0, -1, math.MaxInt64, math.MinInt64, 6, 6, 1 << 40}},
		{Name: "power", Floats: []float64{8.5e6, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 8.5e6 + 1e-3}},
		{Name: "tag", Strs: []string{"summit-0", "", "a", "summit-0", "ünï", "x\x00y", "summit-0"}},
	}}
}

// diffColumn reports the first row where two columns differ, floats compared
// by bit pattern so NaN, the infinities and -0 must survive exactly.
func diffColumn(want, have *Column) string {
	if have == nil {
		return fmt.Sprintf("column %q missing", want.Name)
	}
	if want.IsInt() != have.IsInt() || want.IsStr() != have.IsStr() || want.Len() != have.Len() {
		return fmt.Sprintf("column %q: type or length differs (%d rows, want %d)", want.Name, have.Len(), want.Len())
	}
	for j := 0; j < want.Len(); j++ {
		switch {
		case want.IsInt() && want.Ints[j] != have.Ints[j]:
			return fmt.Sprintf("column %q row %d: %d, want %d", want.Name, j, have.Ints[j], want.Ints[j])
		case want.IsStr() && want.Strs[j] != have.Strs[j]:
			return fmt.Sprintf("column %q row %d: %q, want %q", want.Name, j, have.Strs[j], want.Strs[j])
		case !want.IsInt() && !want.IsStr() && math.Float64bits(want.Floats[j]) != math.Float64bits(have.Floats[j]):
			return fmt.Sprintf("column %q row %d: bits %x, want %x", want.Name, j,
				math.Float64bits(have.Floats[j]), math.Float64bits(want.Floats[j]))
		}
	}
	return ""
}

// TestCodecFixtures decodes one checked-in partition per codec byte through
// every read entry point and requires the original values bit for bit.
func TestCodecFixtures(t *testing.T) {
	want := fixtureTable()
	for codec := Codec(0); codec < numCodecs; codec++ {
		t.Run(fmt.Sprintf("codec%d", codec), func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("codec%d.spwr", codec)))
			if err != nil {
				t.Fatal(err)
			}
			sr, err := NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if sr.codec != codec {
				t.Fatalf("fixture header says codec %d", sr.codec)
			}
			_ = sr.Close()
			ds := &Dataset{Dir: t.TempDir(), Name: "fx"}
			if err := os.WriteFile(ds.dayPath(0), raw, 0o644); err != nil {
				t.Fatal(err)
			}

			full, err := ds.ReadDay(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(full.Cols) != len(want.Cols) {
				t.Fatalf("Read: %d columns, want %d", len(full.Cols), len(want.Cols))
			}
			for i := range want.Cols {
				if d := diffColumn(&want.Cols[i], &full.Cols[i]); d != "" {
					t.Errorf("Read: %s", d)
				}
			}

			sub, err := ds.ReadDayColumns(0, []string{"power", "count"})
			if err != nil {
				t.Fatal(err)
			}
			if len(sub.Cols) != 2 {
				t.Fatalf("ReadColumns subset: %d columns, want 2", len(sub.Cols))
			}
			for _, name := range []string{"count", "power"} {
				if d := diffColumn(want.Col(name), sub.Col(name)); d != "" {
					t.Errorf("ReadColumns subset: %s", d)
				}
			}

			m, err := ds.DayMeta(0)
			if err != nil {
				t.Fatal(err)
			}
			if m.Rows != 7 || len(m.Columns) != 4 || m.TimeColumn != "timestamp" || !m.HasTime ||
				m.MinTime != 1577836800 || m.MaxTime != 1577836900 || m.TimeSorted {
				t.Errorf("DayMeta = %+v", m)
			}
			if c, ok := m.Column("tag"); !ok || !c.Str {
				t.Errorf("DayMeta.Column(tag) = %+v, %v", c, ok)
			}

			var sc IterScratch
			for _, value := range []string{"power", "count"} {
				var got []float64
				rows, err := ds.IterDayColumns(0, []string{"timestamp"}, value, &sc, func(start int, vals []float64) error {
					got = append(got, vals...)
					return nil
				})
				if err != nil || rows != 7 {
					t.Fatalf("IterDayColumns(%s): rows %d, err %v", value, rows, err)
				}
				wantVals := want.Col(value).Floats
				if wantVals == nil {
					for _, v := range want.Col(value).Ints {
						wantVals = append(wantVals, float64(v))
					}
				}
				if d := diffColumn(&Column{Name: value, Floats: wantVals}, &Column{Name: value, Floats: got}); d != "" {
					t.Errorf("IterDayColumns: %s", d)
				}
				if d := diffColumn(want.Col("timestamp"), &Column{Name: "timestamp", Ints: sc.Axes[0]}); d != "" {
					t.Errorf("IterDayColumns axis: %s", d)
				}
			}
		})
	}
}
