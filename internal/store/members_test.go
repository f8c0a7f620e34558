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
	"strings"
	"testing"
	"testing/iotest"
)

// writeSingleStream is the framing every build before the directory wrote:
// the whole payload in one gzip member, its values encoded here one by one,
// apart from the PartitionWriter. It is the reference WriteCodec's members
// are held to, and how the tests get a partition no directory describes.
func writeSingleStream(w io.Writer, t *Table, codec Codec) error {
	if err := t.Validate(); err != nil {
		return err
	}
	ver := byte(version)
	for i := range t.Cols {
		if t.Cols[i].IsStr() {
			ver = versionStrings
		}
	}
	b := appendUvarint(append([]byte(magic), ver, byte(codec)), uint64(len(t.Cols)))
	b = appendUvarint(b, uint64(t.NumRows()))
	for i := range t.Cols {
		c, kind := &t.Cols[i], colFlt
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
	zw, err := gzip.NewWriterLevel(w, codec.gzipLevel())
	if err != nil {
		return err
	}
	if _, err := zw.Write(b); err != nil {
		return err
	}
	return zw.Close()
}

// framings are the two ways a table's payload is cut into gzip members.
var framings = []struct {
	name  string
	write func(io.Writer, *Table, Codec) error
}{{"members", WriteCodec}, {"single stream", writeSingleStream}}

func encoded(t testing.TB, write func(io.Writer, *Table, Codec) error, tab *Table, codec Codec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf, tab, codec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMembersGunzipToTheSingleStream: cutting the payload into members moves
// no byte of it, under any codec, for tables with rows, without rows, without
// columns and with strided columns — so a build that has never heard of members reads the
// stream it always read. And the cut itself is a pure function of the table.
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
			members := encoded(t, WriteCodec, tab, codec)
			if !bytes.Equal(gunzipped(t, members), gunzipped(t, encoded(t, writeSingleStream, tab, codec))) {
				t.Errorf("%s codec %d: members gunzip to a different payload than the single stream", name, codec)
			}
			if !bytes.Equal(members, encoded(t, WriteCodec, tab, codec)) {
				t.Errorf("%s codec %d: the same table written twice differs", name, codec)
			}
			sr, err := NewReader(bytes.NewReader(members))
			if err != nil {
				t.Fatal(err)
			}
			if sr.dir == nil || sr.seek == nil || len(sr.dir.cols) != len(tab.Cols) {
				t.Fatalf("%s codec %d: no directory read back (%v)", name, codec, sr.dirErr)
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
// fixtureTable by seeking, by streaming (one byte at a time, the way a pipe
// might deliver it) and by the byte-at-a-time reference decoder over
// `gunzip`'s view of the file — which is how every earlier build sees the
// first two, whose payload is also codecN.spwr's. Every earlier build refuses
// the third's strided column as an unknown kind.
func TestMemberFixtures(t *testing.T) {
	want := fixtureTable()
	for name, codec := range map[string]Codec{"members-delta": CodecDelta, "members-gorilla": CodecGorilla, "members-strided": CodecDeltaFast} {
		raw, err := os.ReadFile(filepath.Join("testdata", name+".spwr"))
		if err != nil {
			t.Fatal(err)
		}
		before := Stats()
		seek, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: seek path: %v", name, err)
		}
		sameTable(t, name+" seek path", want, seek)
		if d := Stats().MembersVerified - before.MembersVerified; d != int64(1+len(want.Cols)) {
			t.Errorf("%s: %d members verified by a full read, want the header's and one per column", name, d)
		}
		stream, err := Read(iotest.OneByteReader(bytes.NewReader(raw)))
		if err != nil {
			t.Fatalf("%s: streaming path: %v", name, err)
		}
		sameTable(t, name+" streaming path", want, stream)
		cols, err := decodePayload(gunzipped(t, raw), plainReader, refColumn)
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
// checksum leaves the base to be streamed, and a stream that runs on into
// the companion is an error naming the partition: the companion's payload is
// never decoded as base rows. A file holding its base alone has no companion
// to read; a companion that fails to encode publishes nothing.
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
	if check := ds.VerifyDay(0); !check.Members || !check.Companion || len(check.Problems) > 0 {
		t.Errorf("members-companion VerifyDay: %+v, want members, a companion and no problems", check)
	}
	if _, err := Read(iotest.OneByteReader(bytes.NewReader(raw))); err == nil {
		t.Error("members-companion streamed: the base's stream ran on into its companion without an error")
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
		if err := read(); err == nil || !strings.Contains(err.Error(), "fixture-day00000.spwr") {
			t.Errorf("members-companion with a damaged directory, %s: %v, want an error naming fixture-day00000.spwr", what, err)
		}
	}

	write(raw[:len(raw)-len(encoded(t, WriteCodec, companionFixtureTable(), CodecGorilla))])
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
	enc := encoded(t, WriteCodec, tab, CodecDelta)
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
func metaOf(r io.Reader) (DayMeta, error) {
	return readDayMeta(r, 3, []string{"timestamp", "begin_time", "window"})
}

// TestDayMetaFromDirectoryEqualsTheScan: whatever the directory answers, the
// scan of the same payload answers too — the time column is the first
// candidate in file order whichever comes first, sorted or not, rows or none
// — and only the scan inflates anything.
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
			before := Stats()
			indexed, err := metaOf(bytes.NewReader(encoded(t, WriteCodec, tab, codec)))
			if err != nil {
				t.Fatal(err)
			}
			mid := Stats()
			scanned, err := metaOf(bytes.NewReader(encoded(t, writeSingleStream, tab, codec)))
			if err != nil {
				t.Fatal(err)
			}
			after := Stats()
			if !reflect.DeepEqual(indexed, scanned) {
				t.Errorf("%s codec %d: directory says %+v, the scan %+v", name, codec, indexed, scanned)
			}
			if want, ok := wantColumn[name]; ok && indexed.TimeColumn != want {
				t.Errorf("%s: time column %q, want %q", name, indexed.TimeColumn, want)
			}
			if mid.PartitionsIndexed-before.PartitionsIndexed != 1 || mid.PartitionsStreamed != before.PartitionsStreamed ||
				mid.MembersVerified-before.MembersVerified != 1 {
				t.Errorf("%s codec %d: a DayMeta with a directory moved the counters %+v -> %+v, want one partition indexed and the header member verified", name, codec, before, mid)
			}
			if after.PartitionsStreamed-mid.PartitionsStreamed != 1 || after.PartitionsIndexed != mid.PartitionsIndexed {
				t.Errorf("%s codec %d: a DayMeta without a directory moved the counters %+v -> %+v, want one partition streamed", name, codec, mid, after)
			}
		}
	}
}

// TestDirectoryThatDoesNotFit: the gzip extra field holds 65 535 bytes. A
// table whose directory is larger is written without one — members all the
// same — and read back as a stream.
func TestDirectoryThatDoesNotFit(t *testing.T) {
	tab := &Table{}
	for i := 0; i < 700; i++ {
		tab.Cols = append(tab.Cols, Column{Name: fmt.Sprintf("%s-%03d", strings.Repeat("n", 100), i), Ints: []int64{int64(i), 7}})
	}
	enc := encoded(t, WriteCodec, tab, CodecDelta)
	sr, err := NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if sr.dir != nil || sr.dirErr != nil || sr.seek != nil {
		t.Fatalf("a %d-column table with 104-byte names has a directory (%v)", len(tab.Cols), sr.dirErr)
	}
	got, err := Read(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, "streamed members", tab, got)
	if !bytes.Equal(gunzipped(t, enc), gunzipped(t, encoded(t, writeSingleStream, tab, CodecDelta))) {
		t.Error("payload differs from the single stream's")
	}
}

// flipTable is fixtureTable with its value column last: the block iterator
// stops reading a partition at the last column it needs, and only a reader
// that consumes the last column of a partition without a directory reaches
// the stream's checksum (DESIGN.md §4 says what an earlier stop leaves
// unverified).
func flipTable() *Table {
	f := fixtureTable()
	return &Table{Cols: []Column{*f.Col("timestamp"), *f.Col("tag"), *f.Col("count"), *f.Col("power")}}
}

// TestFlippedBitIsAnErrorNeverANumber flips every bit of a small partition,
// and one bit in every thirteenth byte of a larger one, under both production
// codecs — the larger one also strided under CodecDeltaFast, as node-power is
// written — and both framings, and reads the damaged file through every entry
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
			for _, framing := range framings {
				what := fmt.Sprintf("%s, codec %d, %s", tc.name, codec, framing.name)
				good := encoded(t, framing.write, tc.tab, codec)
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
				// Most bytes of a partition are compressed payload or a checksum
				// over it (the rest: gzip headers, and the directory, without
				// which a full read streams and still succeeds).
				if errors < flips/2 {
					t.Errorf("%s: only %d of %d flips failed a full read", what, errors, flips)
				}
			}
		}
	}

	// A byte flipped inside the companion a partition carries: no read of
	// the partition sees it, and a read of the companion fails or returns it
	// whole.
	good := encoded(t, WriteCodec, strided, CodecDeltaFast)
	at := len(good)
	good = append(good, encoded(t, WriteCodec, companionFixtureTable(), CodecGorilla)...)
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
