package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/tsagg"
)

// TestSourcePlaneParity is the golden guarantee of the RunSource layer: a
// simulated run archived and re-opened answers every accessor and every
// refactored analysis bit-identically (tolerance 0) to its in-memory
// source. The run spans more than one day so the archive path exercises
// multi-partition reconstruction.
func TestSourcePlaneParity(t *testing.T) {
	cfg := sim.Config{
		Seed:             7,
		Nodes:            18, // trimmed so the race-detector CI run stays bounded
		StartTime:        1_577_836_800,
		DurationSec:      26 * 3600, // just over a day -> two partitions
		StepSec:          10,
		SamplesPerWindow: 2,
		Jobs:             40,
		FailureRateScale: 2000,
		FailureCheckSec:  120,
	}
	d, _, err := CollectRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteDatasets(dir, d); err != nil {
		t.Fatal(err)
	}
	mem := d.Source()
	arc, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	memMeta, err := mem.Meta()
	if err != nil {
		t.Fatal(err)
	}
	arcMeta, err := arc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if memMeta != arcMeta {
		t.Fatalf("meta differs: mem %+v, archive %+v", memMeta, arcMeta)
	}

	// The archive's series inventory — the float columns of its
	// cluster-power partitions — is exactly the live plane's, and every
	// series must match bit for bit.
	var memNames []string
	for name, s := range mem.SeriesByName {
		if s != nil {
			memNames = append(memNames, name)
		}
	}
	sort.Strings(memNames)
	arcNames := clusterFloatColumns(t, dir)
	if fmt.Sprint(memNames) != fmt.Sprint(arcNames) {
		t.Fatalf("series inventories differ:\nmem     %v\narchive %v", memNames, arcNames)
	}
	for _, name := range memNames {
		ms, err := mem.Series(name)
		if err != nil {
			t.Fatal(err)
		}
		as, err := arc.Series(name)
		if err != nil {
			t.Fatalf("archive series %q: %v", name, err)
		}
		if ms.Start != as.Start || ms.Step != as.Step || ms.Len() != as.Len() {
			t.Fatalf("series %q shape differs: mem (%d,%d,%d) archive (%d,%d,%d)",
				name, ms.Start, ms.Step, ms.Len(), as.Start, as.Step, as.Len())
		}
		for i := range ms.Vals {
			if math.Float64bits(ms.Vals[i]) != math.Float64bits(as.Vals[i]) {
				t.Fatalf("series %q window %d: mem %v, archive %v",
					name, i, ms.Vals[i], as.Vals[i])
			}
		}
	}

	// Job records row for row.
	memJobs, err := mem.JobRecords()
	if err != nil {
		t.Fatal(err)
	}
	arcJobs, err := arc.JobRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(memJobs) == 0 || len(memJobs) != len(arcJobs) {
		t.Fatalf("job counts differ: mem %d, archive %d", len(memJobs), len(arcJobs))
	}
	for i := range memJobs {
		if fmt.Sprintf("%+v", memJobs[i]) != fmt.Sprintf("%+v", arcJobs[i]) {
			t.Fatalf("job %d differs:\nmem     %+v\narchive %+v", i, memJobs[i], arcJobs[i])
		}
	}

	// Failure log event for event (a failure's project is its job's, in
	// the allocation log).
	memEvs, err := mem.Failures()
	if err != nil {
		t.Fatal(err)
	}
	arcEvs, err := arc.Failures()
	if err != nil {
		t.Fatal(err)
	}
	if len(memEvs) == 0 || len(memEvs) != len(arcEvs) {
		t.Fatalf("failure counts differ: mem %d, archive %d", len(memEvs), len(arcEvs))
	}
	for i := range memEvs {
		a, b := memEvs[i], arcEvs[i]
		if a.Time != b.Time || a.Node != b.Node || a.Slot != b.Slot ||
			a.Type != b.Type || a.JobID != b.JobID ||
			math.Float64bits(a.TempC) != math.Float64bits(b.TempC) ||
			math.Float64bits(a.TempZ) != math.Float64bits(b.TempZ) {
			t.Fatalf("failure %d differs:\nmem     %+v\narchive %+v", i, a, b)
		}
	}

	// The scheduler's allocation log, the job series and the exemplar
	// frames row for row, floats by bit pattern.
	logs := []struct {
		what string
		rows func(source.RunSource) (any, error)
	}{
		{"allocations", func(s source.RunSource) (any, error) { return s.Allocations() }},
		{"job series", func(s source.RunSource) (any, error) { return s.JobPower() }},
		{"exemplar frames", func(s source.RunSource) (any, error) { return s.ExemplarGPUs() }},
	}
	for _, l := range logs {
		fromMem, errM := l.rows(mem)
		fromArc, errA := l.rows(arc)
		if errM != nil || errA != nil {
			t.Fatalf("%s: mem err %v, archive err %v", l.what, errM, errA)
		}
		m, a := reflect.ValueOf(fromMem), reflect.ValueOf(fromArc)
		if m.Len() == 0 || m.Len() != a.Len() {
			t.Fatalf("%s: mem %d rows, archive %d", l.what, m.Len(), a.Len())
		}
		for i := 0; i < m.Len(); i++ {
			if !rowBitsEqual(m.Index(i), a.Index(i)) {
				t.Fatalf("%s row %d differs:\nmem     %+v\narchive %+v", l.what, i, m.Index(i), a.Index(i))
			}
		}
	}

	// Every analysis on the source must produce identical output from both
	// planes. Reports are plain data; show prints every field at %#v,
	// through pointers.
	analyses := []struct {
		what string
		run  func(source.RunSource, []source.JobRecord) (any, error)
	}{
		{"edges", func(s source.RunSource, _ []source.JobRecord) (any, error) { return EdgesFromSource(s) }},
		{"swings", func(s source.RunSource, _ []source.JobRecord) (any, error) { return SwingsFromSource(s) }},
		{"bands", func(s source.RunSource, _ []source.JobRecord) (any, error) { return ThermalBandsFromSource(s) }},
		{"earlywarning", func(s source.RunSource, _ []source.JobRecord) (any, error) { return EarlyWarningFromSource(s, 3600) }},
		{"overcooling", func(s source.RunSource, _ []source.JobRecord) (any, error) { return OvercoolingFromSource(s) }},
		{"validation", func(s source.RunSource, _ []source.JobRecord) (any, error) { return ValidationFromSource(s) }},
		{"summary", func(s source.RunSource, _ []source.JobRecord) (any, error) { return SummaryFromSource(s) }},
		{"figure 5", func(s source.RunSource, _ []source.JobRecord) (any, error) { return Figure5Trends(s) }},
		{"figure 6", func(_ source.RunSource, r []source.JobRecord) (any, error) { return Figure6EnergyPower(r, 24), nil }},
		{"figure 7", func(_ source.RunSource, r []source.JobRecord) (any, error) { return Figure7JobCDFs(r), nil }},
		{"figure 8", func(_ source.RunSource, r []source.JobRecord) (any, error) { return Figure8DomainBreakdown(r), nil }},
		{"figure 9", func(_ source.RunSource, r []source.JobRecord) (any, error) { return Figure9ComponentKDE(r, 24), nil }},
		{"figure 11", func(s source.RunSource, _ []source.JobRecord) (any, error) { return Figure11EdgeSnapshots(s, 60, 240) }},
		{"figure 12", func(s source.RunSource, _ []source.JobRecord) (any, error) {
			return Figure12ThermalResponse(s, 60, 240)
		}},
		{"table 4", func(s source.RunSource, _ []source.JobRecord) (any, error) { return Table4Composition(s) }},
		{"figure 13", func(s source.RunSource, _ []source.JobRecord) (any, error) { return Figure13Correlation(s, 0.05) }},
		{"figure 15", func(s source.RunSource, _ []source.JobRecord) (any, error) { return Figure15ThermalExtremity(s, 0.8) }},
		{"figure 16", func(s source.RunSource, _ []source.JobRecord) (any, error) { return Figure16Placement(s, false) }},
		{"dataset C", func(s source.RunSource, _ []source.JobRecord) (any, error) { return SchedulingByClass(s) }},
		{"figure 10", func(s source.RunSource, _ []source.JobRecord) (any, error) { return Figure10Dynamics(s) }},
		{"figure 14", func(s source.RunSource, _ []source.JobRecord) (any, error) {
			return Figure14FailuresPerProject(s, false, 0)
		}},
		{"figure 14 (hardware)", func(s source.RunSource, _ []source.JobRecord) (any, error) {
			return Figure14FailuresPerProject(s, true, 0)
		}},
		{"figure 17", func(s source.RunSource, _ []source.JobRecord) (any, error) { return Figure17Variability(s) }},
		{"section 9", func(s source.RunSource, _ []source.JobRecord) (any, error) { return BuildFingerprints(s) }},
	}
	for _, a := range analyses {
		fromMem, errM := a.run(mem, memJobs)
		fromArc, errA := a.run(arc, arcJobs)
		if errM != nil || errA != nil {
			t.Fatalf("%s: mem err %v, archive err %v", a.what, errM, errA)
		}
		if gm, ga := show(fromMem), show(fromArc); gm != ga {
			t.Errorf("%s differs:\nmem     %.400s\narchive %.400s", a.what, gm, ga)
		}
	}
}

// rowBitsEqual compares two rows of one struct type field by field, floats
// by bit pattern (NaN == NaN, -0 != +0).
func rowBitsEqual(a, b reflect.Value) bool {
	for i := 0; i < a.NumField(); i++ {
		fa, fb := a.Field(i), b.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if !fa.Equal(fb) {
			return false
		}
	}
	return true
}

// show prints v at %#v, following pointers and interfaces to the values
// they hold, so two results compare by content rather than by address.
func show(v any) string {
	var b strings.Builder
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				b.WriteString("nil")
				return
			}
			walk(v.Elem())
		case reflect.Struct:
			b.WriteString(v.Type().String() + "{")
			for i := 0; i < v.NumField(); i++ {
				b.WriteString(v.Type().Field(i).Name + ":")
				walk(v.Field(i))
				b.WriteString(", ")
			}
			b.WriteString("}")
		case reflect.Slice, reflect.Array:
			b.WriteString("[")
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
				b.WriteString(", ")
			}
			b.WriteString("]")
		case reflect.Map:
			keys := v.MapKeys()
			sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
			b.WriteString("map[")
			for _, k := range keys {
				fmt.Fprintf(&b, "%#v:", k)
				walk(v.MapIndex(k))
				b.WriteString(", ")
			}
			b.WriteString("]")
		default:
			fmt.Fprintf(&b, "%#v", v)
		}
	}
	walk(reflect.ValueOf(v))
	return b.String()
}

// TestValidationRefusesHalfMeterPair: Figure 4 compares whole pairs. A
// meter whose sensor sum is missing — on the live plane, or in an archive
// assembled by hand — fails the validation naming the missing sum, and is
// never reported on as a shorter run of switchboards.
func TestValidationRefusesHalfMeterPair(t *testing.T) {
	const start, step, windows = int64(1_577_836_800), int64(600), 12
	names := []string{source.MeterSeriesName(0), source.MSBSumSeriesName(0), source.MeterSeriesName(1)}
	mem := &source.MemorySource{
		RunMeta:      source.Meta{StartTime: start, StepSec: step, Nodes: 36, Windows: windows},
		SeriesByName: map[string]*tsagg.Series{},
	}
	ts := make([]int64, windows)
	cols := []store.Column{{Name: "timestamp", Ints: ts}}
	for i, name := range names {
		s := tsagg.NewSeries(start, step, windows)
		for w := range s.Vals {
			ts[w] = s.TimeAt(w)
			s.Vals[w] = 1e5 + float64(i*100+w)
		}
		mem.SeriesByName[name] = s
		cols = append(cols, store.Column{Name: name, Floats: s.Vals})
	}
	dir := t.TempDir()
	cluster, err := store.NewDataset(dir, source.DatasetClusterPower)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WriteDay(0, &store.Table{Cols: cols}); err != nil {
		t.Fatal(err)
	}
	manifest, err := store.NewDataset(dir, source.DatasetRunMeta)
	if err != nil {
		t.Fatal(err)
	}
	if err := manifest.WriteDay(0, source.ManifestTable(mem.RunMeta)); err != nil {
		t.Fatal(err)
	}
	arc, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for plane, src := range map[string]source.RunSource{"memory": mem, "archive": arc} {
		rep, err := ValidationFromSource(src)
		if err == nil || !strings.Contains(err.Error(), source.MSBSumSeriesName(1)) {
			t.Errorf("%s plane: validation of a half pair = %+v, %v; want an error naming %s",
				plane, rep, err, source.MSBSumSeriesName(1))
		}
	}
}

// clusterFloatColumns lists, sorted, every float column of the archive's
// cluster-power partitions: the series the archive plane serves.
func clusterFloatColumns(t *testing.T, dir string) []string {
	t.Helper()
	ds, err := store.NewDataset(dir, source.DatasetClusterPower)
	if err != nil {
		t.Fatal(err)
	}
	days, err := ds.Days()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var names []string
	for _, day := range days {
		dm, err := ds.DayMeta(day)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range dm.Columns {
			if !c.Int && !c.Str && !seen[c.Name] {
				seen[c.Name] = true
				names = append(names, c.Name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// TestArchiveSourcePruning verifies that a ranged read prunes partitions:
// asking for a window inside day 0 must not decode day 1.
func TestArchiveSourcePruning(t *testing.T) {
	cfg := sim.Config{
		Seed: 3, Nodes: 12, StartTime: 1_577_836_800,
		DurationSec: 2 * 86400, StepSec: 60, SamplesPerWindow: 1,
		Jobs: 10, FailureRateScale: 1,
	}
	d, _, err := CollectRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteDatasets(dir, d); err != nil {
		t.Fatal(err)
	}
	cache := store.NewTableCache(256 << 20)
	arc, err := source.OpenArchive(source.ArchiveConfig{Dir: dir, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	t0 := cfg.StartTime + 3600
	s, err := arc.SeriesRange(source.SeriesClusterPower, t0, t0+3600)
	if err != nil {
		t.Fatal(err)
	}
	inRange := 0
	for i, v := range s.Vals {
		if math.IsNaN(v) {
			continue
		}
		tv := s.TimeAt(i)
		if tv < t0 || tv >= t0+3600 {
			t.Fatalf("value outside requested range at %d", tv)
		}
		inRange++
	}
	if want := int(3600 / cfg.StepSec); inRange != want {
		t.Fatalf("ranged read returned %d values, want %d", inRange, want)
	}
	// First touch streams through the column iterator: nothing admitted.
	entries, _ := cache.Stats()
	if entries != 0 {
		t.Fatalf("cold pruned read cached %d partitions, want 0", entries)
	}
	// The surviving day is now hot: the same read materializes and admits
	// exactly the one (timestamp, sum_inp) pair — pruned days stay out —
	// and returns bit-identical values.
	s2, err := arc.SeriesRange(source.SeriesClusterPower, t0, t0+3600)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Vals) != len(s.Vals) {
		t.Fatalf("hot read returned %d values, want %d", len(s2.Vals), len(s.Vals))
	}
	for i, v := range s2.Vals {
		if math.Float64bits(v) != math.Float64bits(s.Vals[i]) {
			t.Fatalf("hot read diverged at slot %d: %v != %v", i, v, s.Vals[i])
		}
	}
	if entries, _ = cache.Stats(); entries != 1 {
		t.Fatalf("hot pruned read cached %d partitions, want 1", entries)
	}
}
