package source_test

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/tsagg"
)

// buildFleetArchive simulates one modest multi-day run with per-node data
// and archives it, returning the archive dir. The span crosses two day
// boundaries so federation exercises a partial trailing partition.
func buildFleetArchive(t *testing.T) string {
	t.Helper()
	cfg := sim.Config{
		Seed:             11,
		Nodes:            18,
		Cluster:          "summit-0",
		StartTime:        1_577_836_800,
		DurationSec:      2*86400 + 7200, // 2 full days + 2 h -> three partitions
		StepSec:          60,
		SamplesPerWindow: 1,
		Jobs:             24,
		FailureRateScale: 2000,
		FailureCheckSec:  120,
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	col := core.NewCollector(s, cfg)
	nw, err := core.NewNodeDatasetWriter(dir, cfg.Nodes, cfg.Site)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(col, nw)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	col.SetFailures(res.Failures)
	if err := core.WriteDatasets(dir, col.Data()); err != nil {
		t.Fatal(err)
	}
	return dir
}

func sameSeries(t *testing.T, what string, a, b *tsagg.Series) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("%s: nil series (direct %v, federated %v)", what, a == nil, b == nil)
	}
	if a.Start != b.Start || a.Step != b.Step || len(a.Vals) != len(b.Vals) {
		t.Fatalf("%s shape differs: direct (%d,%d,%d) federated (%d,%d,%d)",
			what, a.Start, a.Step, len(a.Vals), b.Start, b.Step, len(b.Vals))
	}
	for i := range a.Vals {
		if math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) {
			t.Fatalf("%s window %d: direct %v, federated %v", what, i, a.Vals[i], b.Vals[i])
		}
	}
}

// TestFederatedParity is the golden guarantee of the federation layer: a
// federated N-shard query answers bit-identically (tolerance 0) to the
// equivalent single-source read, for any shard count and any worker count.
// Run under -race it also vets the scatter-gather path for data races.
func TestFederatedParity(t *testing.T) {
	dir := buildFleetArchive(t)
	direct, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	dMeta, err := direct.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if dMeta.Cluster != "summit-0" {
		t.Fatalf("archive lost cluster identity: %+v", dMeta)
	}
	dNames, err := direct.SeriesNames()
	if err != nil {
		t.Fatal(err)
	}

	type variant struct {
		label   string
		shards  int
		workers int
	}
	variants := []variant{
		{"n1", 1, 0},
		{"n2-w1", 2, 1},
		{"n2-w8", 2, 8},
		{"n4-w1", 4, 1},
		{"n4-w8", 4, 8},
	}
	for _, v := range variants {
		t.Run(v.label, func(t *testing.T) {
			fed, err := source.OpenShardedArchive(source.ShardedArchiveConfig{
				Archive:    source.ArchiveConfig{Dir: dir},
				Shards:     v.shards,
				CacheBytes: 64 << 20,
				Workers:    v.workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			fMeta, err := fed.Meta()
			if err != nil {
				t.Fatal(err)
			}
			if fMeta != dMeta {
				t.Fatalf("meta differs: direct %+v, federated %+v", dMeta, fMeta)
			}
			fNames, err := fed.SeriesNames()
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(fNames) != fmt.Sprint(dNames) {
				t.Fatalf("series inventories differ:\ndirect    %v\nfederated %v", dNames, fNames)
			}
			for _, name := range dNames {
				ds, err := direct.Series(name)
				if err != nil {
					t.Fatal(err)
				}
				fs, err := fed.Series(name)
				if err != nil {
					t.Fatalf("federated series %q: %v", name, err)
				}
				sameSeries(t, "series "+name, ds, fs)
			}
			if _, err := fed.Series("no_such_series"); !errors.Is(err, source.ErrUnknownSeries) {
				t.Fatalf("unknown series: got %v, want ErrUnknownSeries", err)
			}

			dMet, dSum, err := direct.MeterSeries()
			if err != nil {
				t.Fatal(err)
			}
			fMet, fSum, err := fed.MeterSeries()
			if err != nil {
				t.Fatal(err)
			}
			if len(dMet) != len(fMet) || len(dSum) != len(fSum) {
				t.Fatalf("meter counts differ: direct %d/%d, federated %d/%d",
					len(dMet), len(dSum), len(fMet), len(fSum))
			}
			for m := range dMet {
				sameSeries(t, fmt.Sprintf("meter %d", m), dMet[m], fMet[m])
				sameSeries(t, fmt.Sprintf("meter sum %d", m), dSum[m], fSum[m])
			}

			dJobs, err := direct.JobRecords()
			if err != nil {
				t.Fatal(err)
			}
			fJobs, err := fed.JobRecords()
			if err != nil {
				t.Fatal(err)
			}
			if len(dJobs) == 0 || fmt.Sprintf("%+v", dJobs) != fmt.Sprintf("%+v", fJobs) {
				t.Fatalf("job records differ (direct %d rows, federated %d rows)", len(dJobs), len(fJobs))
			}

			dEvs, err := direct.Failures()
			if err != nil {
				t.Fatal(err)
			}
			fEvs, err := fed.Failures()
			if err != nil {
				t.Fatal(err)
			}
			if len(dEvs) != len(fEvs) || fmt.Sprintf("%+v", dEvs) != fmt.Sprintf("%+v", fEvs) {
				t.Fatalf("failure logs differ (direct %d, federated %d)", len(dEvs), len(fEvs))
			}

			for day := 0; day < fed.Days(); day++ {
				dNW, err := direct.NodeWindows(day)
				if err != nil {
					t.Fatal(err)
				}
				fNW, err := fed.NodeWindows(day)
				if err != nil {
					t.Fatalf("federated node windows day %d: %v", day, err)
				}
				if len(dNW) != len(fNW) {
					t.Fatalf("day %d node counts differ: direct %d, federated %d", day, len(dNW), len(fNW))
				}
				var nodes []int
				for n := range dNW {
					nodes = append(nodes, n)
				}
				sort.Ints(nodes)
				for _, n := range nodes {
					if fmt.Sprintf("%+v", dNW[n]) != fmt.Sprintf("%+v", fNW[n]) {
						t.Fatalf("day %d node %d windows differ", day, n)
					}
				}
			}

			// Every analysis in internal/core must see identical data.
			dSummary, err := core.SummaryFromSource(direct)
			if err != nil {
				t.Fatal(err)
			}
			fSummary, err := core.SummaryFromSource(fed)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%#v", dSummary) != fmt.Sprintf("%#v", fSummary) {
				t.Fatalf("summaries differ:\ndirect    %#v\nfederated %#v", dSummary, fSummary)
			}

			snap := fed.Stats()
			if snap.Shards != v.shards || snap.Fanouts == 0 {
				t.Fatalf("implausible federation stats: %+v", snap)
			}
			total := 0
			for _, sh := range snap.PerShard {
				total += sh.OwnedDays
			}
			if total != fed.Days() {
				t.Fatalf("ownership map covers %d days, want exactly %d", total, fed.Days())
			}
		})
	}
}

// downSource delegates to an inner source but fails every data read — a
// shard whose process is unreachable.
type downSource struct {
	inner source.RunSource
}

var errShardDown = errors.New("shard down")

func (d downSource) Meta() (source.Meta, error)     { return d.inner.Meta() }
func (d downSource) SeriesNames() ([]string, error) { return d.inner.SeriesNames() }
func (d downSource) Series(string) (*tsagg.Series, error) {
	return nil, errShardDown
}
func (d downSource) SeriesRange(string, int64, int64) (*tsagg.Series, error) {
	return nil, errShardDown
}
func (d downSource) MeterSeries() ([]*tsagg.Series, []*tsagg.Series, error) {
	return nil, nil, errShardDown
}
func (d downSource) JobRecords() ([]source.JobRecord, error) { return nil, errShardDown }
func (d downSource) Failures() ([]failures.Event, error)     { return nil, errShardDown }
func (d downSource) NodeWindows(int) (map[int][]tsagg.WindowStat, error) {
	return nil, errShardDown
}

// TestFederatedPartialDegradation pins the degradation contract: with a
// dead shard, AllowPartial=false fails the read outright, while
// AllowPartial=true serves the surviving days with NaN holes and reports
// the failed partitions as ShardErrors naming the dead owner.
func TestFederatedPartialDegradation(t *testing.T) {
	dir := buildFleetArchive(t)
	direct, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := direct.Meta()
	if err != nil {
		t.Fatal(err)
	}
	days := source.DayCount(meta)
	names := []string{"shard-0", "shard-1"}

	ring := source.NewRing(names, 0)
	owned := make([][]int, len(names))
	for d := 0; d < days; d++ {
		sh := ring.Owner(source.Partition{Cluster: meta.Cluster, Day: d})
		owned[sh] = append(owned[sh], d)
	}
	build := func(allowPartial bool, killShard int) *source.FederatedSource {
		t.Helper()
		shards := make([]source.Shard, len(names))
		for i := range names {
			a, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			var src source.RunSource = source.Restrict(a, owned[i])
			if i == killShard {
				src = downSource{inner: src}
			}
			shards[i] = source.Shard{Name: names[i], Source: src}
		}
		fed, err := source.OpenFederated(source.FederatedConfig{
			Shards: shards, AllowPartial: allowPartial,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fed
	}

	// Kill the owner of day 0.
	kill := ring.Owner(source.Partition{Cluster: meta.Cluster, Day: 0})

	strict := build(false, kill)
	if _, err := strict.Series(source.SeriesClusterPower); !errors.Is(err, errShardDown) {
		t.Fatalf("strict federation with dead shard: got %v, want errShardDown", err)
	}

	lax := build(true, kill)
	s, shardErrs, err := lax.SeriesDetail(source.SeriesClusterPower)
	if err != nil {
		t.Fatalf("partial federation should degrade, got %v", err)
	}
	if len(shardErrs) == 0 {
		t.Fatal("partial read reported no shard errors")
	}
	for _, se := range shardErrs {
		if !errors.Is(se, errShardDown) {
			t.Fatalf("shard error should wrap the cause: %v", se)
		}
		if se.Shard != names[kill] {
			t.Fatalf("shard error names %q, want %q", se.Shard, names[kill])
		}
	}
	// Failed days drop data: as NaN holes when a later day still stitched,
	// or as truncation when the dead shard owned the tail. Either way the
	// partial answer must carry strictly less data than the direct read.
	dFull, err := direct.Series(source.SeriesClusterPower)
	if err != nil {
		t.Fatal(err)
	}
	countVals := func(s *tsagg.Series) int {
		n := 0
		for _, v := range s.Vals {
			if !math.IsNaN(v) {
				n++
			}
		}
		return n
	}
	if got, want := countVals(s), countVals(dFull); got >= want {
		t.Fatalf("partial read carries %d values, direct %d; dead shard dropped nothing", got, want)
	}
	if got := lax.Stats().PartialResults; got == 0 {
		t.Fatalf("partials served not counted: %+v", lax.Stats())
	}
}
