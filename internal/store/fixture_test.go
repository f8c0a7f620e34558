package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writtenCodecs are the codecs WriteCodec writes and the reader reads.
var writtenCodecs = []Codec{CodecDelta, CodecDeltaFast, CodecGorilla}

// fixtureTable is the table behind testdata/codec{0..4}.spwr and
// members-{delta,gorilla}.spwr. The codec files were written once, by the
// WriteCodec of the commit before the whole-column and block decoders were
// merged, as one gzip stream without a directory; the members files by the
// first WriteCodec that framed members. None is ever regenerated.
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

// TestCodecFixtures: a partition without an intact directory — the
// checked-in codec{0..4}.spwr, one gzip stream each, and members-delta.spwr
// with its directory's CRC32C flipped — is refused by every read entry point
// and by fsck, each error naming the dataset, the partition and what is wrong
// with its directory; no read returns a table or a row.
func TestCodecFixtures(t *testing.T) {
	fixtures := map[string]func() ([]byte, error){}
	for codec := 0; codec <= 4; codec++ {
		name := fmt.Sprintf("codec%d", codec)
		fixtures[name] = func() ([]byte, error) { return os.ReadFile(filepath.Join("testdata", name+".spwr")) }
	}
	fixtures["members-delta, directory CRC32C flipped"] = func() ([]byte, error) {
		raw, err := os.ReadFile(filepath.Join("testdata", "members-delta.spwr"))
		if err == nil {
			// The extra field's length (2 bytes after the 10-byte gzip
			// header) is followed by the subfield, whose last 4 bytes are
			// the CRC32C.
			raw[12+int(binary.LittleEndian.Uint16(raw[10:]))-1] ^= 0x01
		}
		return raw, err
	}
	for name, load := range fixtures {
		t.Run(name, func(t *testing.T) {
			raw, err := load()
			if err != nil {
				t.Fatal(err)
			}
			ds := &Dataset{Dir: t.TempDir(), Name: "fx"}
			if err := os.WriteFile(ds.dayPath(0), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			why := "no directory"
			if strings.HasPrefix(name, "members") {
				why = "directory: CRC32C mismatch"
			}
			refused := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), `dataset "fx"`) || !strings.Contains(err.Error(), "fx-day00000.spwr") ||
					!strings.Contains(err.Error(), why) {
					t.Errorf("%s: %v, want an error naming dataset \"fx\", fx-day00000.spwr and %q", what, err, why)
				}
			}
			tab, err := ds.ReadDay(0)
			refused("ReadDay", err)
			sub, err := ds.ReadDayColumns(0, []string{"power", "count"})
			refused("ReadDayColumns", err)
			if tab != nil || sub != nil {
				t.Error("a refused partition returned a table")
			}
			_, err = ds.DayMeta(0)
			refused("DayMeta", err)
			rows := 0
			count := func(_ int, vals []float64) error { rows += len(vals); return nil }
			_, err = ds.IterDayColumns(0, []string{"timestamp"}, "power", &IterScratch{}, count)
			refused("IterDayColumns", err)
			c := NewTableCache(1 << 20)
			for touch := 1; touch <= 2; touch++ { // the first streams, the second materializes
				_, err = ds.ScanDay(c, 0, nil, []string{"timestamp"}, "power", &IterScratch{}, count)
				refused(fmt.Sprintf("ScanDay, touch %d", touch), err)
			}
			if rows != 0 {
				t.Errorf("%d rows of a refused partition reached a callback", rows)
			}
			check := ds.VerifyDay(0)
			if len(check.Problems) != 1 {
				t.Fatalf("VerifyDay: %v, want one problem", check.Problems)
			}
			refused("VerifyDay", check.Problems[0])
		})
	}
}
