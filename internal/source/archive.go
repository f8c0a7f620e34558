package source

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/failures"
	"repro/internal/parallel"
	"repro/internal/store"
	"repro/internal/tsagg"
)

// Manifest column names.
const (
	manifestNodes    = "nodes"
	manifestStepSec  = "step_sec"
	manifestStart    = "start_time"
	manifestDuration = "duration_sec"
	manifestCluster  = "cluster"
	manifestSite     = "site"
)

// ManifestTable encodes run dimensions as the one-row run-meta table
// WriteArchive stores and OpenArchive reads back. The cluster identity
// columns are string columns, which bumps the manifest file — and only the
// manifest file — to the string-capable format version.
func ManifestTable(m Meta) *store.Table {
	return &store.Table{Cols: []store.Column{
		{Name: manifestNodes, Ints: []int64{int64(m.Nodes)}},
		{Name: manifestStepSec, Ints: []int64{m.StepSec}},
		{Name: manifestStart, Ints: []int64{m.StartTime}},
		{Name: manifestDuration, Ints: []int64{m.SpanSec()}},
		{Name: manifestCluster, Strs: []string{m.Cluster}},
		{Name: manifestSite, Strs: []string{m.Site}},
	}}
}

// ErrNodesMismatch marks an ArchiveConfig.Nodes the run-meta contradicts.
var ErrNodesMismatch = errors.New("source: wrong node count")

// MaxManifestNodes is the largest system a run-meta may claim: far above
// Frontier's 9 408 nodes, and small enough that a floor table sized by the
// claim stays a few megabytes.
const MaxManifestNodes = 1 << 20

// ReadManifest reads dir's run-meta, the archive's commit record: the run's
// dimensions, written after every other partition of the run. A missing
// run-meta (an interrupted run, or one archived before the record was
// required), one lacking any of its six columns, and one whose node count,
// step or duration no run can have are errors naming dir.
func ReadManifest(dir string) (Meta, error) {
	ds := dataset(dir, DatasetRunMeta)
	// One row read exactly once at open; not worth a cache slot.
	tab, err := ds.ReadDay(logDay)
	if err != nil {
		return Meta{}, fmt.Errorf("source: %s has no readable run-meta, so no committed run: %w", dir, err)
	}
	var missing []string
	for _, want := range ManifestTable(Meta{}).Cols {
		if c := tab.Col(want.Name); c == nil || c.IsInt() != want.IsInt() || c.IsStr() != want.IsStr() || c.Len() != 1 {
			missing = append(missing, want.Name)
		}
	}
	if len(missing) > 0 {
		return Meta{}, fmt.Errorf("source: %s: %s lacks column(s) %s", dir, ds.DayFile(logDay), strings.Join(missing, ", "))
	}
	num := func(name string) int64 { return tab.Col(name).Ints[0] }
	nodes, step, span := num(manifestNodes), num(manifestStepSec), num(manifestDuration)
	var bad string
	switch {
	case nodes < 1 || nodes > MaxManifestNodes:
		bad = fmt.Sprintf("%d nodes (want 1 to %d)", nodes, MaxManifestNodes)
	case step <= 0:
		bad = fmt.Sprintf("a %d s step", step)
	case span < 0 || int64(int(span/step)) != span/step:
		bad = fmt.Sprintf("a %d s duration", span)
	}
	if bad != "" {
		return Meta{}, fmt.Errorf("source: %s: %s records %s", dir, ds.DayFile(logDay), bad)
	}
	return Meta{StartTime: num(manifestStart), StepSec: step, Nodes: int(nodes), Windows: int(span / step),
		Cluster: tab.Col(manifestCluster).Strs[0], Site: tab.Col(manifestSite).Strs[0]}, nil
}

// ArchiveConfig parameterizes OpenArchive.
type ArchiveConfig struct {
	// Dir is the archive directory, as written by summitsim / WriteArchive.
	Dir string
	// Nodes, when not 0, is the system size the caller expects: an archive
	// whose run-meta records another is refused (ErrNodesMismatch).
	Nodes int
	// Cache optionally shares a decoded-table cache with other consumers.
	// Nil gives the source a private 256 MiB cache.
	Cache *store.TableCache
	// Workers bounds the parallel partition scan (<= 0: GOMAXPROCS).
	Workers int
}

// ArchiveSource is the archived plane: a RunSource over a store-backed
// archive directory, and the one handle an archive is opened through — the
// query engine serves its raw routes from the same indexes. Reads follow the
// shared hot path — prune partitions by per-day row-range metadata, stream
// only the requested columns, keep decoded tables in the (possibly shared)
// LRU cache. Safe for concurrent use.
type ArchiveSource struct {
	cfg   ArchiveConfig
	cache *store.TableCache
	meta  Meta

	// datasets holds the partition index of every dataset listed at open;
	// immutable after it, so the archive is read as it was then.
	datasets map[string]*store.Index
	cluster  *store.Index // days + metadata: the pruning index of every series read
}

var _ RunSource = (*ArchiveSource)(nil)

// OpenArchive opens dir as a RunSource. The run dimensions are the
// archive's run-meta (ReadManifest), without which it is refused. The
// directory is listed once: every dataset's partitions are indexed then, and
// the cluster dataset, which must exist, has its metadata loaded.
func OpenArchive(cfg ArchiveConfig) (*ArchiveSource, error) {
	meta, err := ReadManifest(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if cfg.Nodes != 0 && cfg.Nodes != meta.Nodes {
		return nil, fmt.Errorf("%w: %d contradicts the run-meta of %s (%d nodes)", ErrNodesMismatch, cfg.Nodes, cfg.Dir, meta.Nodes)
	}
	cache := cfg.Cache
	if cache == nil {
		cache = store.NewTableCache(256 << 20)
	}
	a := &ArchiveSource{cfg: cfg, cache: cache, meta: meta}
	if a.datasets, err = store.OpenIndexes(cfg.Dir, cfg.Workers, TimeColumns...); err != nil {
		return nil, fmt.Errorf("source: open archive: %w", err)
	}
	if a.cluster = a.datasets[DatasetClusterPower]; a.cluster == nil {
		return nil, fmt.Errorf("source: no %s partitions in %s", DatasetClusterPower, cfg.Dir)
	}
	// Load the pruning index now, so a corrupt cluster partition fails the
	// open (naming the file) instead of the first analysis.
	if _, err := a.cluster.Metas(); err != nil {
		return nil, err
	}
	return a, nil
}

// Index returns the partition index of the named dataset, as listed at
// open; false when the archive held no partition of it.
func (a *ArchiveSource) Index(name string) (*store.Index, bool) {
	x, ok := a.datasets[name]
	return x, ok
}

// Datasets lists the datasets the archive held at open, sorted.
func (a *ArchiveSource) Datasets() []string {
	names := make([]string, 0, len(a.datasets))
	for name := range a.datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Cache returns the decoded-table cache every read of the archive draws on.
func (a *ArchiveSource) Cache() *store.TableCache { return a.cache }

// Meta implements RunSource.
func (a *ArchiveSource) Meta() (Meta, error) { return a.meta, nil }

// hasFloatColumn reports whether any partition carries a float column of
// the given name.
func hasFloatColumn(metas []store.DayMeta, name string) bool {
	for _, dm := range metas {
		if c, ok := dm.Column(name); ok && !c.Int && !c.Str {
			return true
		}
	}
	return false
}

// Series implements RunSource: the full-span read.
func (a *ArchiveSource) Series(name string) (*tsagg.Series, error) {
	return a.SeriesRange(name, math.MinInt64, math.MaxInt64)
}

// SeriesRange reads the named series over [t0, t1). Partitions whose time
// span misses the range are pruned through the index; the grid is planned
// from the survivors' metadata; each one is then read through the store's
// day scanner — admitting the (timestamp, series) column pair, not the whole
// day — and its in-range rows written to their grid slots. When the
// partitions' grid spans are provably disjoint (the normal daily layout)
// the days fill the shared grid in parallel; otherwise one worker fills it in
// day order, so the later day wins a contested slot. The returned series
// always starts on the run's grid origin.
func (a *ArchiveSource) SeriesRange(name string, t0, t1 int64) (*tsagg.Series, error) {
	metas, err := a.cluster.Metas()
	if err != nil {
		return nil, err
	}
	if !hasFloatColumn(metas, name) {
		return nil, fmt.Errorf("source: series %q: %w", name, ErrUnknownSeries)
	}
	pruned, _, err := a.cluster.Prune(t0, t1)
	if err != nil {
		return nil, err
	}
	days, bound, disjoint := a.planGrid(pruned, name, t0, t1)
	workers := a.cfg.Workers
	if !disjoint {
		workers = 1
	}
	s := tsagg.NewSeries(a.meta.StartTime, a.meta.StepSec, bound+1)
	vals, cols := s.Vals, []string{colTimestamp, name}
	type fill struct {
		maxIdx int // highest grid index written by the chunk (-1: none)
		err    error
	}
	fills := parallel.ProcessChunks(len(days), workers, func(c parallel.Chunk) fill {
		out := fill{maxIdx: -1}
		var sc store.IterScratch
		for _, day := range days[c.Start:c.End] {
			_, out.err = a.cluster.Dataset().ScanDay(a.cache, day, cols, cols[:1], name, &sc,
				func(start int, block []float64) error {
					times := sc.Axes[0][start:]
					for j, v := range block {
						tv := times[j]
						if tv < t0 || tv >= t1 {
							continue
						}
						idx := int((tv - s.Start) / s.Step)
						if idx < 0 || idx >= len(vals) {
							continue
						}
						vals[idx] = v
						out.maxIdx = max(out.maxIdx, idx)
					}
					return nil
				})
			if out.err != nil {
				break
			}
		}
		return out
	})
	maxIdx := -1
	for _, f := range fills {
		if f.err != nil {
			return nil, f.err
		}
		maxIdx = max(maxIdx, f.maxIdx)
	}
	// The length is one past the highest slot actually written; trailing
	// unwritten slots are dropped.
	s.Vals = vals[:maxIdx+1]
	return s, nil
}

// planGrid plans the grid fill of one series read from metadata alone: the
// days that can contribute a row (in day order), the highest grid index any
// of them can reach, and whether their grid-index spans are pairwise
// disjoint, so that concurrent per-day writes never touch the same slot. A
// partition contributes nothing — and is not read — when it has no time
// span, does not hold the series as a float column, or lies outside
// [t0, t1) or wholly before the grid origin.
func (a *ArchiveSource) planGrid(metas []store.DayMeta, name string, t0, t1 int64) (days []int, bound int, disjoint bool) {
	start, step := a.meta.StartTime, a.meta.StepSec
	type span struct{ lo, hi int }
	var spans []span
	bound = -1
	for _, dm := range metas {
		if c, ok := dm.Column(name); !dm.HasTime || !ok || c.Int || c.Str {
			continue
		}
		lo64, hi64 := max(dm.MinTime, t0), min(dm.MaxTime, t1-1)
		if hi64 < lo64 {
			continue // no rows inside [t0, t1)
		}
		// Truncated division mirrors the fill's index computation, so these
		// bounds are exact for any timestamp the partition can hold.
		hi := int((hi64 - start) / step)
		if hi < 0 {
			continue // entirely before the grid origin
		}
		days, bound = append(days, dm.Day), max(bound, hi)
		spans = append(spans, span{lo: max(int((lo64-start)/step), 0), hi: hi})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo <= spans[i-1].hi {
			return days, bound, false // overlapping spans: day order matters
		}
	}
	return days, bound, true
}

// JobRecords implements RunSource.
func (a *ArchiveSource) JobRecords() ([]JobRecord, error) {
	return readLog(a, DatasetJobRecords, jobSchema)
}

// Failures implements RunSource.
func (a *ArchiveSource) Failures() ([]failures.Event, error) {
	return readLog(a, DatasetFailures, failureSchema)
}

// Allocations implements RunSource.
func (a *ArchiveSource) Allocations() ([]Allocation, error) {
	return readLog(a, DatasetAllocations, allocationSchema)
}

// JobPower implements RunSource.
func (a *ArchiveSource) JobPower() ([]JobWindow, error) {
	return readLog(a, DatasetJobSeries, jobWindowSchema)
}

// ExemplarGPUs implements RunSource.
func (a *ArchiveSource) ExemplarGPUs() ([]GPUSample, error) {
	return readLog(a, DatasetExemplar, gpuSampleSchema)
}

// readLog decodes a whole-run log — its one partition, the schema's columns
// only — through its schema. A log the archive did not hold at open is
// unavailable.
func readLog[R any](a *ArchiveSource, name string, s schema[R]) ([]R, error) {
	x, ok := a.datasets[name]
	if !ok || !slices.Contains(x.Days(), logDay) {
		return nil, fmt.Errorf("source: dataset %q has no partition in %s: %w", name, a.cfg.Dir, ErrUnavailable)
	}
	tab, _, err := x.Dataset().ReadDayColumnsCached(a.cache, logDay, columnNames(s))
	if err != nil {
		return nil, err
	}
	var out []R
	err = decodeRows(s, name, tab, func(r *R) { out = append(out, *r) })
	return out, err
}
