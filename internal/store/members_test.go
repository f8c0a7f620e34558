package store

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// referencePayload is what a partition of tab gunzips to — the table
// header, then each column's name, kind and values — encoded here value by
// value, apart from the PartitionWriter. It is the reference WriteCodec's
// members are held to.
func referencePayload(t testing.TB, tab *Table, codec Codec) []byte {
	t.Helper()
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	ver := byte(version)
	for i := range tab.Cols {
		if tab.Cols[i].IsStr() {
			ver = versionStrings
		}
	}
	b := appendUvarint(append([]byte(magic), ver, byte(codec)), uint64(len(tab.Cols)))
	b = appendUvarint(b, uint64(tab.NumRows()))
	for i := range tab.Cols {
		c, kind := &tab.Cols[i], colFlt
		var vals []byte
		var g gorillaColumn
		switch {
		case c.IsStr():
			kind = colStr
			for _, v := range c.Strs {
				vals = append(appendUvarint(vals, uint64(len(v))), v...)
			}
		case c.IsInt() && codec == CodecGorilla:
			kind = colInt
			vals = g.ints(nil, c.Ints)
		case c.IsInt():
			kind = colInt
			for k, v := range c.Ints {
				var prev int64
				if k > 0 {
					prev = c.Ints[k-1]
				}
				vals = appendUvarint(vals, zigzag(v-prev))
			}
		case codec == CodecGorilla:
			g.floats(nil, c.Floats)
			vals = g.w.finish()
		default:
			for k, v := range c.Floats {
				var prev uint64
				if k >= c.stride() {
					prev = math.Float64bits(c.Floats[k-c.stride()])
				}
				vals = appendUvarint(vals, math.Float64bits(v)^prev)
			}
		}
		b = append(appendUvarint(b, uint64(len(c.Name))), c.Name...)
		if c.stride() > 1 {
			b = appendUvarint(append(b, colFltStrided), uint64(c.stride()))
		} else {
			b = append(b, kind)
		}
		if codec == CodecGorilla {
			b = appendUvarint(b, uint64(len(vals)))
		}
		b = append(b, vals...)
	}
	return b
}

func encoded(t testing.TB, tab *Table, codec Codec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCodec(&buf, tab, codec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// splitMembers cuts a partition into what its members hold, gunzipped: the
// table header and each column's section, and the directory.
func splitMembers(t testing.TB, enc []byte) (header []byte, dir *directory, sections [][]byte) {
	t.Helper()
	sr, err := NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	at := sr.next
	for _, c := range sr.dir.cols {
		sections = append(sections, gunzipped(t, enc[at:at+c.size]))
		at += c.size
	}
	return gunzipped(t, enc[:sr.next]), sr.dir, sections
}

// frameMembers is splitMembers' inverse: the header and each section
// gzipped into a member, the directory — whatever else it claims — told each
// member's size. flush > 0 ends a deflate block after every flush bytes of a
// section, so the inflater under a Reader hands on at most that many bytes a
// Read.
func frameMembers(t testing.TB, header []byte, dir *directory, sections [][]byte, flush int) []byte {
	t.Helper()
	var out, members bytes.Buffer
	gz := func(dst *bytes.Buffer, extra, payload []byte) {
		zw := gzip.NewWriter(dst)
		zw.Extra = extra
		for len(payload) > 0 {
			k := len(payload)
			if flush > 0 {
				k = min(k, flush)
			}
			if _, err := zw.Write(payload[:k]); err != nil {
				t.Fatal(err)
			}
			if err := zw.Flush(); err != nil {
				t.Fatal(err)
			}
			payload = payload[k:]
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i, section := range sections {
		start := members.Len()
		gz(&members, nil, section)
		dir.cols[i].size = int64(members.Len() - start)
	}
	extra, err := dir.encode()
	if err != nil {
		t.Fatal(err)
	}
	gz(&out, extra, header)
	return append(out.Bytes(), members.Bytes()...)
}

// TestMembersGunzipToTheSingleStream: cutting the payload into members moves
// no byte of it, under any codec, for tables with rows, without rows, without
// columns and with strided columns — `gunzip` sees the single stream of the
// payload format, encoded value by value. And the cut itself is a pure
// function of the table.
func TestMembersGunzipToTheSingleStream(t *testing.T) {
	tables := map[string]*Table{
		"fixture": fixtureTable(), "window": windowTable(), "no columns": {},
		"no rows": {Cols: []Column{{Name: "timestamp", Ints: []int64{}}, {Name: "v", Floats: []float64{}}, {Name: "s", Strs: []string{}}}},
		"strided": stridedWindowTable(),
	}
	for name, tab := range tables {
		for _, codec := range writtenCodecs {
			if name == "strided" && !codec.delta() {
				continue // only a delta codec has a predictor to stride
			}
			members := encoded(t, tab, codec)
			if !bytes.Equal(gunzipped(t, members), referencePayload(t, tab, codec)) {
				t.Errorf("%s codec %d: members gunzip to a different payload than the reference", name, codec)
			}
			if !bytes.Equal(members, encoded(t, tab, codec)) {
				t.Errorf("%s codec %d: the same table written twice differs", name, codec)
			}
			sr, err := NewReader(bytes.NewReader(members))
			if err != nil {
				t.Fatal(err)
			}
			if len(sr.dir.cols) != len(tab.Cols) {
				t.Fatalf("%s codec %d: the directory lists %d columns, want %d", name, codec, len(sr.dir.cols), len(tab.Cols))
			}
			total := sr.next
			for _, c := range sr.dir.cols {
				total += c.size
			}
			if total != int64(len(members)) {
				t.Errorf("%s codec %d: header and members add up to %d bytes, file has %d", name, codec, total, len(members))
			}
		}
	}
}

// sameTable requires have to be want, column for column and bit for bit.
func sameTable(t testing.TB, what string, want, have *Table) {
	t.Helper()
	if len(have.Cols) != len(want.Cols) {
		t.Fatalf("%s: %d columns, want %d", what, len(have.Cols), len(want.Cols))
	}
	for i := range want.Cols {
		if d := diffColumn(&want.Cols[i], &have.Cols[i]); d != "" {
			t.Errorf("%s: %s", what, d)
		}
	}
}

// stridedFixtureTable is the table behind testdata/members-strided.spwr:
// fixtureTable with its float column XORed against the value three rows back,
// a stride that does not divide its seven rows.
func stridedFixtureTable() *Table {
	tab := fixtureTable()
	tab.Col("power").Stride = 3
	return tab
}

// companionFixtureTable is the companion testdata/members-companion.spwr
// carries after fixtureTable: a pre-aggregate's shape — window and kind axes,
// then one column's Welford state — in values and a row count no column of
// fixtureTable has, so a read that returns one for the other cannot pass.
func companionFixtureTable() *Table {
	return &Table{Cols: []Column{
		{Name: "window", Ints: []int64{0, 0, 600, 600, 1200}},
		{Name: "kind", Ints: []int64{0, 2, 0, 2, 2}},
		{Name: "power.n", Ints: []int64{3, 7, 2, 5, 1}},
		{Name: "power.mean", Floats: []float64{412.5, 398.25, math.Copysign(0, -1), math.Inf(1), 1e-300}},
		{Name: "power.m2", Floats: []float64{12.75, math.NaN(), 0, 3.5, 2.25}},
	}}
}

// TestMemberFixtures: testdata/members-{delta,gorilla}.spwr were written
// once, by the first WriteCodec that framed members, and
// members-strided.spwr (CodecDeltaFast, stridedFixtureTable) by the first
// that wrote strides; none is ever regenerated. Each must decode to
// fixtureTable from a source handing over every byte at once, from one
// handing over one byte a Read, and by the byte-at-a-time reference decoder.
// The first two gunzip to the payload of codec0.spwr and codec4.spwr, which
// have not moved a byte since before there were members.
func TestMemberFixtures(t *testing.T) {
	want := fixtureTable()
	for name, codec := range map[string]Codec{"members-delta": CodecDelta, "members-gorilla": CodecGorilla, "members-strided": CodecDeltaFast} {
		raw, err := os.ReadFile(filepath.Join("testdata", name+".spwr"))
		if err != nil {
			t.Fatal(err)
		}
		before := Stats()
		got, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameTable(t, name, want, got)
		if d := Stats().MembersVerified - before.MembersVerified; d != int64(1+len(want.Cols)) {
			t.Errorf("%s: %d members verified by a full read, want the header's and one per column", name, d)
		}
		dribbled, err := Read(oneByte(bytes.NewReader(raw)))
		if err != nil {
			t.Fatalf("%s, one byte a Read: %v", name, err)
		}
		sameTable(t, name+", one byte a Read", want, dribbled)
		cols, err := decodeMembers(raw, plainReader, refColumn)
		if err != nil {
			t.Fatalf("%s: reference decoder: %v", name, err)
		}
		sameTable(t, name+" reference decoder", want, &Table{Cols: cols})
		if name == "members-strided" {
			if sr, err := NewReader(bytes.NewReader(raw)); err != nil || sr.codec != codec || sr.dir.cols[2].stride != 3 {
				t.Errorf("%s: not a CodecDeltaFast partition with power at stride 3 (%v)", name, err)
			}
			continue
		}
		legacy, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("codec%d.spwr", codec)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gunzipped(t, raw), gunzipped(t, legacy)) {
			t.Errorf("%s: payload differs from codec%d.spwr's", name, codec)
		}
	}
	companionFixture(t, want)
}

// companionFixture: testdata/members-companion.spwr was written once, by the
// first two-partition day writer — fixtureTable under CodecDelta, then
// companionFixtureTable under CodecGorilla — and is never regenerated. Every
// read of the day returns fixtureTable alone; the companion handle returns
// the companion; fsck finds both whole. A base directory that fails its
// checksum is an error naming the partition for the base and the companion
// alike: without it neither can be found. A file holding its base alone has
// no companion to read; a companion that fails to encode publishes nothing.
func companionFixture(t *testing.T, want *Table) {
	raw, err := os.ReadFile(filepath.Join("testdata", "members-companion.spwr"))
	if err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{Dir: t.TempDir(), Name: "fixture"}
	comp := ds.Companion("fixture.rollup")
	write := func(raw []byte) {
		if err := os.WriteFile(ds.dayPath(0), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(raw)
	base, err := ds.ReadDay(0)
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, "members-companion ReadDay", want, base)
	if meta, err := ds.DayMeta(0); err != nil || meta.Rows != want.NumRows() || len(meta.Columns) != len(want.Cols) {
		t.Errorf("members-companion DayMeta: %+v, %v; want the base's %d rows and %d columns", meta, err, want.NumRows(), len(want.Cols))
	}
	got, err := comp.ReadDay(0)
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, "members-companion companion ReadDay", companionFixtureTable(), got)
	delta, err := os.ReadFile(filepath.Join("testdata", "members-delta.spwr"))
	if err != nil {
		t.Fatal(err)
	}
	br := bytes.NewReader(raw)
	if err := SeekCompanion(br); err != nil || len(raw)-br.Len() != len(delta) || !bytes.HasPrefix(raw, delta) {
		t.Errorf("members-companion: companion at byte %d (%v), want members-delta.spwr's %d bytes, unchanged, before it", len(raw)-br.Len(), err, len(delta))
	}
	if check := ds.VerifyDay(0); !check.Companion || len(check.Problems) > 0 {
		t.Errorf("members-companion VerifyDay: %+v, want a companion and no problems", check)
	}

	// The directory's body starts after the gzip header (10 bytes), the
	// extra field's length (2) and the subfield's id and length (4).
	bad := append([]byte(nil), raw...)
	bad[16] ^= 0x01
	write(bad)
	for what, read := range map[string]func() error{
		"ReadDay":           func() error { _, err := ds.ReadDay(0); return err },
		"DayMeta":           func() error { _, err := ds.DayMeta(0); return err },
		"companion ReadDay": func() error { _, err := comp.ReadDay(0); return err },
	} {
		if err := read(); err == nil || !strings.Contains(err.Error(), "fixture-day00000.spwr") || !strings.Contains(err.Error(), "CRC32C") {
			t.Errorf("members-companion with a damaged directory, %s: %v, want an error naming fixture-day00000.spwr and the CRC32C", what, err)
		}
	}

	write(raw[:len(raw)-len(encoded(t, companionFixtureTable(), CodecGorilla))])
	if _, err := comp.ReadDay(0); !errors.Is(err, ErrNoCompanion) {
		t.Errorf("the base alone, companion ReadDay: %v, want ErrNoCompanion", err)
	}

	// A companion that fails publishes nothing: the day keeps the file it
	// had and no .tmp is left. A companion handle writes nothing at all.
	write(raw)
	err = ds.WriteDayFunc(0, func(w io.Writer) error {
		if err := WriteCodec(w, fixtureTable(), CodecDelta); err != nil {
			return err
		}
		return errors.New("fold failed")
	})
	if err == nil || !strings.Contains(err.Error(), "fixture-day00000.spwr") || !strings.Contains(err.Error(), "fold failed") {
		t.Errorf("a failing companion: %v, want an error naming the partition and the cause", err)
	}
	if err := comp.WriteDay(0, want); err == nil {
		t.Error("a companion handle wrote over its base's file")
	}
	if after, err := os.ReadFile(ds.dayPath(0)); err != nil || !bytes.Equal(after, raw) {
		t.Errorf("the failed writes touched the day's file (%v)", err)
	}
	if entries, err := os.ReadDir(ds.Dir); err != nil || len(entries) != 1 {
		t.Errorf("dir holds %v after the failed writes (%v), want the day's file alone", entries, err)
	}
}

// TestSkipIsASeek: a selective read of a partition with a directory touches
// the members it decodes and steps over the rest without inflating them — a
// skipped member may hold anything.
func TestSkipIsASeek(t *testing.T) {
	tab := windowTable()
	enc := encoded(t, tab, CodecDelta)
	sr, err := NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	at := sr.next
	for _, c := range sr.dir.cols {
		if c.Name != "input_power.mean" {
			for i := at; i < at+c.size; i++ {
				enc[i] = 0xA5
			}
		}
		at += c.size
	}
	before := Stats()
	got, err := ReadColumns(bytes.NewReader(enc), []string{"input_power.mean"})
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, "one column of six", &Table{Cols: []Column{*tab.Col("input_power.mean")}}, got)
	after := Stats()
	if s, v := after.MembersSkipped-before.MembersSkipped, after.MembersVerified-before.MembersVerified; s != 5 || v != 2 {
		t.Errorf("%d members skipped and %d verified, want 5 and 2 (the header's, the column's)", s, v)
	}
	if _, err := Read(bytes.NewReader(enc)); err == nil || !strings.Contains(err.Error(), `column "timestamp"`) {
		t.Errorf("a full read of the overwritten members: %v, want an error naming the first of them", err)
	}
}

// metaOf is readDayMeta with the archive's candidate time columns.
func metaOf(r io.ReadSeeker) (DayMeta, error) {
	return readDayMeta(r, 3, timeCandidates)
}

var timeCandidates = []string{"timestamp", "begin_time", "window"}

// scannedMeta is what DayMeta must say of tab, found from its values: the
// time column is the first integer column in file order among the
// candidates, with its range and whether it is non-decreasing.
func scannedMeta(tab *Table) DayMeta {
	meta := DayMeta{Day: 3, Rows: tab.NumRows()}
	for _, c := range tab.Cols {
		meta.Columns = append(meta.Columns, ColumnInfo{Name: c.Name, Int: c.IsInt(), Str: c.IsStr()})
		if meta.TimeColumn != "" || !c.IsInt() || !slices.Contains(timeCandidates, c.Name) {
			continue
		}
		meta.TimeColumn, meta.HasTime, meta.TimeSorted = c.Name, len(c.Ints) > 0, slices.IsSorted(c.Ints)
		if meta.HasTime {
			meta.MinTime, meta.MaxTime = slices.Min(c.Ints), slices.Max(c.Ints)
		}
	}
	return meta
}

// TestDayMetaFromDirectoryEqualsTheScan: what the directory answers is what a
// scan of the values finds — the time column is the first candidate in file
// order whichever comes first, sorted or not, rows or none — and answering
// it inflates nothing but the header.
func TestDayMetaFromDirectoryEqualsTheScan(t *testing.T) {
	begin, ts := []int64{50, 40, 60}, []int64{100, 110, 120}
	tables := map[string]*Table{
		"begin_time first": {Cols: []Column{{Name: "begin_time", Ints: begin}, {Name: "timestamp", Ints: ts}, {Name: "v", Floats: []float64{1, 2, 3}}}},
		"timestamp first":  {Cols: []Column{{Name: "tag", Strs: []string{"a", "b", "c"}}, {Name: "timestamp", Ints: ts}, {Name: "begin_time", Ints: begin}}},
		"float namesake":   {Cols: []Column{{Name: "timestamp", Floats: []float64{1, 2, 3}}, {Name: "window", Ints: begin}}},
		"no time column":   {Cols: []Column{{Name: "node", Ints: ts}}},
		"no rows":          {Cols: []Column{{Name: "begin_time", Ints: []int64{}}, {Name: "timestamp", Ints: []int64{}}}},
		"fixture":          fixtureTable(),
		"extremes":         {Cols: []Column{{Name: "timestamp", Ints: []int64{math.MaxInt64, math.MinInt64, 0}}}},
	}
	wantColumn := map[string]string{"begin_time first": "begin_time", "timestamp first": "timestamp", "float namesake": "window", "no rows": "begin_time"}
	for name, tab := range tables {
		for _, codec := range []Codec{CodecDelta, CodecGorilla} {
			enc := encoded(t, tab, codec)
			before := Stats()
			indexed, err := metaOf(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			after := Stats()
			if want := scannedMeta(tab); !reflect.DeepEqual(indexed, want) {
				t.Errorf("%s codec %d: directory says %+v, the values %+v", name, codec, indexed, want)
			}
			if want, ok := wantColumn[name]; ok && indexed.TimeColumn != want {
				t.Errorf("%s: time column %q, want %q", name, indexed.TimeColumn, want)
			}
			if after.PartitionsIndexed-before.PartitionsIndexed != 1 || after.MembersVerified-before.MembersVerified != 1 {
				t.Errorf("%s codec %d: DayMeta moved the counters %+v -> %+v, want one partition indexed and the header member verified", name, codec, before, after)
			}
		}
	}
}

// TestDirectoryThatDoesNotFit: the gzip extra field holds 65 535 bytes. A
// table whose directory is larger is refused by the writer, naming the
// directory's size and the limit, before a byte is written; a day of it
// leaves neither its file nor a .tmp.
func TestDirectoryThatDoesNotFit(t *testing.T) {
	tab := &Table{}
	for i := 0; i < 700; i++ {
		tab.Cols = append(tab.Cols, Column{Name: fmt.Sprintf("%s-%03d", strings.Repeat("n", 100), i), Ints: []int64{int64(i), 7}})
	}
	var buf bytes.Buffer
	err := WriteCodec(&buf, tab, CodecDelta)
	if err == nil || !regexp.MustCompile(`directory of 700 columns is [0-9]+ bytes, over the 65531 bytes`).MatchString(err.Error()) || buf.Len() > 0 {
		t.Fatalf("a %d-column table with 104-byte names: %v, %d bytes written; want an error naming the directory's size and the limit, and nothing", len(tab.Cols), err, buf.Len())
	}
	ds := &Dataset{Dir: t.TempDir(), Name: "wide"}
	if err := ds.WriteDayCodec(0, tab, CodecDelta); err == nil || !strings.Contains(err.Error(), "wide-day00000.spwr") {
		t.Errorf("WriteDayCodec: %v, want an error naming wide-day00000.spwr", err)
	}
	if entries, err := os.ReadDir(ds.Dir); err != nil || len(entries) != 0 {
		t.Errorf("the refused day left %v (%v), want nothing", entries, err)
	}
}

// flipTable is fixtureTable with its value column last: the block iterator
// stops reading a partition at the last column it needs, and every column
// before it is a member the read either verifies or steps over.
func flipTable() *Table {
	f := fixtureTable()
	return &Table{Cols: []Column{*f.Col("timestamp"), *f.Col("tag"), *f.Col("count"), *f.Col("power")}}
}

// TestFlippedBitIsAnErrorNeverANumber flips every bit of a small partition,
// and one bit in every thirteenth byte of a larger one, under both production
// codecs — the larger one also strided under CodecDeltaFast, as node-power is
// written — and reads the damaged file through every entry
// point; then every bit of a companion appended to the strided one. Each read must fail or return exactly what the intact file holds: a
// flip may land in a byte no reader interprets (a gzip header's timestamp),
// or in a member the read steps over, but it may never come back as a value.
func TestFlippedBitIsAnErrorNeverANumber(t *testing.T) {
	window := headRows(windowTable(), 700)
	window.Cols = window.Cols[:5] // the numeric columns; input_power.std is last
	strided := headRows(stridedWindowTable(), 700)
	strided.Cols = strided.Cols[:5]
	production := []Codec{CodecDelta, CodecGorilla}
	cases := []struct {
		name        string
		tab         *Table
		every       int // flip bits in every this many bytes
		codecs      []Codec
		selection   []string
		axis, value string
	}{
		{"fixture", flipTable(), 1, production, []string{"count", "tag"}, "timestamp", "power"},
		{"window", window, 13, production, []string{"node", "input_power.mean"}, "node", "input_power.std"},
		{"window strided", strided, 13, []Codec{CodecDeltaFast}, []string{"node", "input_power.mean"}, "node", "input_power.std"},
	}
	for _, tc := range cases {
		for _, codec := range tc.codecs {
			what := fmt.Sprintf("%s, codec %d", tc.name, codec)
			good := encoded(t, tc.tab, codec)
			wantMeta, err := metaOf(bytes.NewReader(good))
			if err != nil {
				t.Fatal(err)
			}
			selected := &Table{}
			for _, c := range tc.tab.Cols {
				if c.Name == tc.selection[0] || c.Name == tc.selection[1] {
					selected.Cols = append(selected.Cols, c)
				}
			}
			wantVals := &Column{Name: tc.value, Floats: tc.tab.Col(tc.value).Floats}
			flips, errors := 0, 0
			bad := make([]byte, len(good))
			for i := 0; i < len(good); i += tc.every {
				for bit := 0; bit < 8; bit++ {
					if tc.every > 1 && bit != i%8 {
						continue
					}
					copy(bad, good)
					bad[i] ^= 1 << bit
					flips++
					at := fmt.Sprintf("%s, bit %d of byte %d flipped", what, bit, i)

					if tab, err := Read(bytes.NewReader(bad)); err == nil {
						sameTable(t, at+": Read", tc.tab, tab)
					} else {
						errors++
					}
					if tab, err := ReadColumns(bytes.NewReader(bad), tc.selection); err == nil {
						sameTable(t, at+": ReadColumns", selected, tab)
					}
					var sc IterScratch
					var vals []float64
					if _, err := iterColumns(bytes.NewReader(bad), []string{tc.axis}, tc.value, &sc, func(_ int, v []float64) error {
						vals = append(vals, v...)
						return nil
					}); err == nil {
						if d := diffColumn(wantVals, &Column{Name: tc.value, Floats: vals}); d != "" {
							t.Errorf("%s: IterDayColumns: %s", at, d)
						}
						if d := diffColumn(tc.tab.Col(tc.axis), &Column{Name: tc.axis, Ints: sc.Axes[0]}); d != "" {
							t.Errorf("%s: IterDayColumns axis: %s", at, d)
						}
					}
					if meta, err := metaOf(bytes.NewReader(bad)); err == nil && !reflect.DeepEqual(meta, wantMeta) {
						t.Errorf("%s: DayMeta %+v, want %+v", at, meta, wantMeta)
					}
				}
			}
			if t.Failed() {
				t.Fatalf("%s: a flipped bit was served as data", what)
			}
			// Most bytes of a partition are compressed payload, the
			// directory or a checksum over one of them (the rest: gzip
			// headers).
			if errors < flips/2 {
				t.Errorf("%s: only %d of %d flips failed a full read", what, errors, flips)
			}
		}
	}

	// A byte flipped inside the companion a partition carries: no read of
	// the partition sees it, and a read of the companion fails or returns it
	// whole.
	good := encoded(t, strided, CodecDeltaFast)
	at := len(good)
	good = append(good, encoded(t, companionFixtureTable(), CodecGorilla)...)
	flips, failed := 0, 0
	for i := at; i < len(good); i++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), good...)
			bad[i] ^= 1 << bit
			flips++
			what := fmt.Sprintf("companion, bit %d of byte %d flipped", bit, i)
			if tab, err := Read(bytes.NewReader(bad)); err != nil {
				t.Fatalf("%s: Read of the partition: %v", what, err)
			} else {
				sameTable(t, what+": Read of the partition", strided, tab)
			}
			if _, err := metaOf(bytes.NewReader(bad)); err != nil {
				t.Fatalf("%s: DayMeta of the partition: %v", what, err)
			}
			br := bytes.NewReader(bad)
			err := SeekCompanion(br)
			var tab *Table
			if err == nil {
				tab, err = Read(br)
			}
			if err == nil {
				sameTable(t, what+": Read of the companion", companionFixtureTable(), tab)
			} else {
				failed++
			}
		}
	}
	if t.Failed() {
		t.Fatal("a byte flipped in a companion was served as data")
	}
	if failed < flips/2 {
		t.Errorf("companion: only %d of %d flips failed its read", failed, flips)
	}
}

// TestCorruptMemberNamesPartitionAndColumn: the error of a damaged member
// says which file and which column.
func TestCorruptMemberNamesPartitionAndColumn(t *testing.T) {
	ds := &Dataset{Dir: t.TempDir(), Name: "node-power"}
	tab := windowTable()
	if err := ds.WriteDayCodec(12, tab, CodecGorilla); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ds.dayPath(12))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// The middle of the fourth column's member, well inside its values.
	at := sr.next + sr.dir.cols[0].size + sr.dir.cols[1].size + sr.dir.cols[2].size + sr.dir.cols[3].size/2
	raw[at] ^= 0x10
	if err := os.WriteFile(ds.dayPath(12), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for what, read := range map[string]func() error{
		"ReadDay":        func() error { _, err := ds.ReadDay(12); return err },
		"ReadDayColumns": func() error { _, err := ds.ReadDayColumns(12, []string{"input_power.mean"}); return err },
		"IterDayColumns": func() error {
			_, err := ds.IterDayColumns(12, []string{"timestamp"}, "input_power.mean", &IterScratch{}, func(int, []float64) error { return nil })
			return err
		},
	} {
		err := read()
		if err == nil || !strings.Contains(err.Error(), "node-power-day00012.spwr") || !strings.Contains(err.Error(), `column "input_power.mean"`) {
			t.Errorf("%s: %v, want an error naming node-power-day00012.spwr and column \"input_power.mean\"", what, err)
		}
	}
	if _, err := ds.ReadDayColumns(12, []string{"timestamp", "input_power.std"}); err != nil {
		t.Errorf("a read of the undamaged columns: %v", err)
	}
}
