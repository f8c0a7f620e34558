package source

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/failures"
	"repro/internal/parallel"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/tsagg"
)

// The archive layout: every dataset's name, columns, column order, row type
// and codec is decided in this file and nowhere else (DESIGN.md §4 is this
// file as a table). WriteArchive and NodeDayWriter are the only writers,
// ArchiveSource the reader, and each row dataset goes both ways through one
// schema function. What a partition file is called is internal/store's.

// Canonical dataset names of the archive layout, mirroring the paper's
// artifact appendix.
const (
	DatasetClusterPower = "cluster-power" // Datasets 1–2 + facility (B/12)
	DatasetJobRecords   = "job-records"   // Datasets 5–7
	DatasetFailures     = "gpu-xid"       // Dataset E
	DatasetNodePower    = "node-power"    // Dataset 0 (opt-in, large)
	DatasetAllocations  = "allocations"   // Dataset C
	DatasetJobSeries    = "job-series"    // Datasets 3/4: Σ input power per job window
	DatasetExemplar     = "gpu-exemplar"  // Figure 17's per-GPU frames
	// DatasetRunMeta is the one-row manifest WriteArchive emits so an
	// archive is self-describing: system size, coarsening grid and span.
	DatasetRunMeta = "run-meta"
)

// dataset is the handle of one of the layout's datasets in dir; its names
// are constants (or come from store.Datasets) and need no validation.
func dataset(dir, name string) *store.Dataset { return &store.Dataset{Dir: dir, Name: name} }

const (
	// logDay is the one partition the whole-run logs and run-meta live in; every other dataset is sliced into daySec days.
	logDay = 0
	daySec = 86400

	colTimestamp = "timestamp"
	colBeginTime = "begin_time"

	clusterRequired = 12 // leading clusterColumns every run carries
	nodeAxes        = 2  // leading node-power columns: timestamp, node
)

// TimeColumns are the time axes of the schemas below. A partition's pruning
// axis is the first of its integer columns, in its own column order, named
// here (companions are keyed by window).
var TimeColumns = []string{colTimestamp, colBeginTime, RollupColWindow}

// clusterColumns is the cluster-power schema after its timestamp axis, in
// archive column order: the clusterRequired series every run carries, then
// the ones a run may lack. Two indexed families follow: gpu_band_<b>, then
// the meter_power_<m> / msb_sensor_sum_<m> pairs Figure 4 validates.
var clusterColumns = []string{
	SeriesClusterPower, SeriesClusterTruePower, SeriesCPUPower, SeriesGPUPower,
	SeriesPUE, SeriesSupplyC, SeriesReturnC, SeriesTowerTons, SeriesChillerTons,
	SeriesWetBulbC, SeriesGPUTempMean, SeriesGPUTempMax,
	SeriesTowerCount, SeriesChillerCount, SeriesCPUTempMean, SeriesCPUTempMax,
}

// clusterSeries fetches the cluster-power value columns src carries, in
// archive column order; an indexed family ends at its first absent member.
// A meter's sensor sum is required once the meter exists: Figure 4
// validates pairs, and half of one archived would pass for a shorter run.
func clusterSeries(src RunSource) (names []string, series []*tsagg.Series, err error) {
	get := func(name string, optional bool) bool {
		s, e := src.Series(name)
		if e == nil {
			names, series = append(names, name), append(series, s)
		} else if !optional || !errors.Is(e, ErrUnknownSeries) {
			err = errors.Join(err, e)
		}
		return e == nil
	}
	for i, name := range clusterColumns {
		get(name, i >= clusterRequired)
	}
	for b := 0; get(GPUBandSeries(b), true); b++ {
	}
	for m := 0; get(MeterSeriesName(m), true); m++ {
		get(MSBSumSeriesName(m), false)
	}
	return names, series, err
}

// A schema binds every column of one row dataset to a field of its row
// type, in archive column order. It is the dataset's only declaration: the
// table builder runs it to append a row to the columns, the reader to fill a
// row from them, so they agree on every name, position and type.
type schema[R any] func(c *rowCodec, r *R)

// rowCodec is the cursor a schema runs against: the dataset's columns and
// what to do with each bound field.
type rowCodec struct {
	cols []store.Column
	k    int // next column the schema binds
	mode int
	row  int // readRow: the row being filled
}

const (
	declareCols = iota // create the typed, empty columns
	appendRow          // append each bound field to its column
	readRow            // fill each bound field from c.row
)

// bindInt binds the next column, an integer one, to *p. (A declared column
// holds an empty, non-nil slice: that is what types a store.Column.)
func bindInt[T ~int | ~int64](c *rowCodec, name string, p *T) {
	switch c.mode {
	case declareCols:
		c.cols = append(c.cols, store.Column{Name: name, Ints: []int64{}})
	case appendRow:
		c.cols[c.k].Ints = append(c.cols[c.k].Ints, int64(*p))
	case readRow:
		*p = T(c.cols[c.k].Ints[c.row])
	}
	c.k++
}

// bindFloat binds the next column, a float one, to *p.
func bindFloat(c *rowCodec, name string, p *float64) {
	switch c.mode {
	case declareCols:
		c.cols = append(c.cols, store.Column{Name: name, Floats: []float64{}})
	case appendRow:
		c.cols[c.k].Floats = append(c.cols[c.k].Floats, *p)
	case readRow:
		*p = c.cols[c.k].Floats[c.row]
	}
	c.k++
}

// bindStr binds the next column, a string one, to *p.
func bindStr(c *rowCodec, name string, p *string) {
	switch c.mode {
	case declareCols:
		c.cols = append(c.cols, store.Column{Name: name, Strs: []string{}})
	case appendRow:
		c.cols[c.k].Strs = append(c.cols[c.k].Strs, *p)
	case readRow:
		*p = c.cols[c.k].Strs[c.row]
	}
	c.k++
}

// declare runs s over a zero row, leaving a codec that holds the dataset's
// columns — named, typed, empty — ready to append rows to.
func declare[R any](s schema[R]) *rowCodec {
	c := &rowCodec{}
	s(c, new(R))
	c.mode = appendRow
	return c
}

// encodeRows builds the dataset's table from rows.
func encodeRows[R any](s schema[R], rows []R) *store.Table {
	c := declare(s)
	for i := range rows {
		c.k = 0
		s(c, &rows[i])
	}
	return &store.Table{Cols: c.cols}
}

// columnNames lists the dataset's columns in archive order.
func columnNames[R any](s schema[R]) []string {
	var names []string
	for _, col := range declare(s).cols {
		names = append(names, col.Name)
	}
	return names
}

// decodeRows hands emit every row of a partition of the named dataset. It
// can only fail on a partition some other writer produced.
func decodeRows[R any](s schema[R], name string, tab *store.Table, emit func(*R)) error {
	c, n := declare(s), tab.NumRows()
	for k, want := range c.cols {
		got := tab.Col(want.Name)
		// An empty column reads back untyped, so only rows can be mistyped.
		if got == nil || n > 0 && (got.IsStr() != want.IsStr() || got.IsInt() != want.IsInt()) {
			return fmt.Errorf("source: dataset %s: missing or mistyped column %q", name, want.Name)
		}
		c.cols[k] = *got
	}
	c.mode = readRow
	for c.row = 0; c.row < n; c.row++ {
		var r R
		c.k = 0
		s(c, &r)
		emit(&r)
	}
	return nil
}

// jobSchema is the job-records dataset: one row per observed job.
func jobSchema(c *rowCodec, r *JobRecord) {
	bindInt(c, "allocation_id", &r.AllocationID)
	bindInt(c, "class", &r.Class)
	bindInt(c, "domain", &r.Domain)
	bindInt(c, "num_nodes", &r.Nodes)
	bindInt(c, colBeginTime, &r.BeginTime)
	bindInt(c, "end_time", &r.EndTime)
	bindFloat(c, "max_sum_inp", &r.MaxPowerW)
	bindFloat(c, "mean_sum_inp", &r.MeanPowerW)
	bindFloat(c, "energy", &r.EnergyJ)
	bindFloat(c, "mean_mean_cpu_pwr", &r.MeanCPUPowerW)
	bindFloat(c, "max_cpu_pwr", &r.MaxCPUPowerW)
	bindFloat(c, "mean_mean_gpu_pwr", &r.MeanGPUPowerW)
	bindFloat(c, "max_gpu_pwr", &r.MaxGPUPowerW)
}

// failureSchema is the gpu-xid dataset: the failure log.
func failureSchema(c *rowCodec, e *failures.Event) {
	bindInt(c, colTimestamp, &e.Time)
	bindInt(c, "node", &e.Node)
	bindInt(c, "slot", &e.Slot)
	bindInt(c, "xid_type", &e.Type)
	bindInt(c, "allocation_id", &e.JobID)
	bindFloat(c, "gpu_core_temp", &e.TempC)
	bindFloat(c, "temp_zscore", &e.TempZ)
}

// allocationSchema is the allocations dataset: the scheduler's log, one row
// per allocation, the columns of the paper's Dataset C.
func allocationSchema(c *rowCodec, r *Allocation) {
	bindInt(c, "allocation_id", &r.AllocationID)
	bindStr(c, "user", &r.User)
	bindStr(c, "project", &r.Project)
	bindInt(c, "domain", &r.Domain)
	bindInt(c, "class", &r.Class)
	bindInt(c, "num_nodes", &r.Nodes)
	bindInt(c, "submit_time", &r.SubmitTime)
	bindInt(c, colBeginTime, &r.BeginTime)
	bindInt(c, "end_time", &r.EndTime)
}

// jobWindowSchema is the job-series dataset: one row per (job, observed
// window).
func jobWindowSchema(c *rowCodec, r *JobWindow) {
	bindInt(c, "allocation_id", &r.AllocationID)
	bindInt(c, colTimestamp, &r.T)
	bindFloat(c, "sum_inp", &r.PowerW)
}

// gpuSampleSchema is the gpu-exemplar dataset: one row per GPU of the
// exemplar job per captured window.
func gpuSampleSchema(c *rowCodec, r *GPUSample) {
	bindInt(c, colTimestamp, &r.T)
	bindInt(c, "allocation_id", &r.AllocationID)
	bindInt(c, "node", &r.Node)
	bindInt(c, "slot", &r.Slot)
	bindFloat(c, "gpu_power", &r.PowerW)
	bindFloat(c, "gpu_core_temp", &r.TempC)
}

// NodeWindow is one node-power row: a node's input-power statistics over
// one coarsening window.
type NodeWindow struct {
	Node int64
	Stat tsagg.WindowStat
}

// nodeSchema is the node-power dataset: the (timestamp, node) axes, then the
// value columns.
func nodeSchema(c *rowCodec, r *NodeWindow) {
	bindInt(c, colTimestamp, &r.Stat.T)
	bindInt(c, "node", &r.Node)
	bindInt(c, "input_power.count", &r.Stat.Count)
	bindFloat(c, "input_power.min", &r.Stat.Min)
	bindFloat(c, "input_power.max", &r.Stat.Max)
	bindFloat(c, "input_power.mean", &r.Stat.Mean)
	bindFloat(c, "input_power.std", &r.Stat.Std)
}

// NodeRollupCols lists the node-power columns pre-aggregated into the rollup
// companion: every value column (the count widened to float, as a scan reads it).
var NodeRollupCols = columnNames(nodeSchema)[nodeAxes:]

// NodeDayWriter writes the node-power dataset as its rows arrive, in (time,
// node) order, one row per node per window. Days count from the first row's
// time in daySec steps, like the run's other datasets. Append encodes the
// rows into their day's base partition and folds the same rows, in the same
// order, into its pre-aggregate companion — what makes a rollup answered
// from the companion bit-identical to one scanned from the base. A day is
// committed as one file, base then companion, through one .tmp and a rename,
// when a row of a later day arrives, and the last day at Close; a day
// re-written without a floor takes its old companion with it. This is the
// one place the pair's codecs are chosen: CodecDeltaFast for the base, its
// float columns strided by the node count so each value is XORed with the
// same node's one window earlier, and Gorilla for the tiny, cold-read
// companion. It holds a day's compressed columns, never its rows. After an
// error it must not be appended to again; the day the error was in is never
// committed.
type NodeDayWriter struct {
	dir    string
	floor  *topology.Floor        // nil: no companion
	block  *rowCodec              // one Append's rows as columns, and the day's declaration
	origin int64                  // the first row's time, from which days count
	day    int                    // the open day
	base   *store.PartitionWriter // nil: no day open
	red    *RollupReducer
	// started is set by the first row, which sets origin.
	started bool
}

// NewNodeDayWriter writes into dir the node-power days of a run of nodes
// nodes; with a floor each day carries its companion.
func NewNodeDayWriter(dir string, nodes int, floor *topology.Floor) *NodeDayWriter {
	w := &NodeDayWriter{dir: dir, floor: floor, block: declare(nodeSchema)}
	for k := range w.block.cols {
		if !w.block.cols[k].IsInt() && nodes <= store.MaxStride { // else the previous row, as before strides
			w.block.cols[k].Stride = max(nodes, 0)
		}
	}
	return w
}

// Append encodes rows as the next rows of the dataset. A row of a later day
// than the open one commits the open day first, so a block that crosses a
// midnight is cut there.
//
//lint:detroot
func (w *NodeDayWriter) Append(rows []NodeWindow) error {
	for len(rows) > 0 {
		if !w.started {
			w.origin, w.started = rows[0].Stat.T, true
		}
		day := int((rows[0].Stat.T - w.origin) / daySec)
		if w.base != nil && day != w.day {
			if err := w.commit(); err != nil {
				return err
			}
		}
		if w.base == nil {
			var err error
			if w.base, err = store.NewPartitionWriter(store.CodecDeltaFast, w.block.cols); err != nil {
				return err
			}
			if w.day = day; w.floor != nil {
				w.red = NewRollupReducer(w.floor, NodeRollupCols)
			}
		}
		end := w.origin + int64(day+1)*daySec
		n := sort.Search(len(rows), func(i int) bool { return rows[i].Stat.T >= end })
		if err := w.encode(rows[:n]); err != nil {
			w.base = nil // a day its rows did not all reach is never committed
			return err
		}
		rows = rows[n:]
	}
	return nil
}

// encode appends rows, all of the open day, to its base and its companion.
func (w *NodeDayWriter) encode(rows []NodeWindow) error {
	c := w.block
	for k := range c.cols {
		col := &c.cols[k]
		col.Ints, col.Floats = col.Ints[:0], col.Floats[:0]
	}
	for i := range rows {
		c.k = 0
		nodeSchema(c, &rows[i])
	}
	if err := w.base.Append(&store.Table{Cols: c.cols}); err != nil || w.red == nil {
		return err
	}
	stat, vals := c.cols[nodeAxes:], make([]float64, len(NodeRollupCols))
	for i := range rows {
		for k := range stat {
			if stat[k].IsInt() {
				vals[k] = float64(stat[k].Ints[i])
			} else {
				vals[k] = stat[k].Floats[i]
			}
		}
		if err := w.red.Add(rows[i].Stat.T, rows[i].Node, vals); err != nil {
			return err
		}
	}
	return nil
}

// Close commits the open day; with none open it writes nothing.
//
//lint:detroot
func (w *NodeDayWriter) Close() error { return w.commit() }

// commit writes the open day and closes it, whether or not that succeeds.
func (w *NodeDayWriter) commit() error {
	base, red := w.base, w.red
	if w.base, w.red = nil, nil; base == nil {
		return nil
	}
	return dataset(w.dir, DatasetNodePower).WriteDayFunc(w.day, func(f io.Writer) error {
		if err := base.Close(f); err != nil || red == nil {
			return err
		}
		return store.WriteCodec(f, red.Table(), store.CodecGorilla)
	})
}

// RunDatasets names every dataset a run archives beside its run-meta: the
// ones WriteArchive writes, and node-power when the run's observer writes it.
func RunDatasets(nodePower bool) []string {
	names := []string{DatasetClusterPower, DatasetJobRecords, DatasetFailures,
		DatasetAllocations, DatasetJobSeries, DatasetExemplar}
	if nodePower {
		names = append(names, DatasetNodePower)
	}
	return names
}

// WriteArchive archives the run src serves into dir as daily-partitioned
// columnar files, the paper's one-file-per-day layout: the cluster-power
// series sliced by day, the run's logs, and last the run-meta manifest that
// makes the archive self-describing. The run is read and dir checked
// (BeginArchive) before the first byte is written. run-meta, the archive's
// commit record, is written only once every partition has succeeded, so a
// failed or interrupted write leaves an archive every reader refuses. A run's
// node-power days are its observer's (NodeDayWriter), closed before this
// commits.
//
//lint:detroot
func WriteArchive(dir string, src RunSource) error {
	m, err := src.Meta()
	if err != nil {
		return err
	}
	names, series, err := clusterSeries(src)
	if err != nil {
		return err
	}
	jobs, err := src.JobRecords()
	if err != nil {
		return err
	}
	evs, err := src.Failures()
	if err != nil {
		return err
	}
	allocs, err := src.Allocations()
	if err != nil {
		return err
	}
	windows, err := src.JobPower()
	if err != nil {
		return err
	}
	exemplar, err := src.ExemplarGPUs()
	if err != nil {
		return err
	}
	if err := BeginArchive(m.SpanSec(), nil, dir); err != nil {
		return err
	}
	// The partitions are independent files, each one's bytes a function of
	// its table alone, so they are encoded side by side; errors come back in
	// partition order.
	type partition struct {
		dataset string
		day     int
		table   *store.Table
	}
	var parts []partition
	for day := 0; day < int((m.SpanSec()+daySec-1)/daySec); day++ {
		t0 := m.StartTime + int64(day)*daySec
		ts := make([]int64, series[0].Slice(t0, t0+daySec).Len())
		for i := range ts {
			ts[i] = t0 + int64(i)*m.StepSec
		}
		tab := &store.Table{Cols: []store.Column{{Name: colTimestamp, Ints: ts}}}
		for i, s := range series {
			tab.Cols = append(tab.Cols, store.Column{Name: names[i], Floats: s.Slice(t0, t0+daySec).Vals})
		}
		parts = append(parts, partition{DatasetClusterPower, day, tab})
	}
	parts = append(parts,
		partition{DatasetJobRecords, logDay, encodeRows(jobSchema, jobs)},
		partition{DatasetFailures, logDay, encodeRows(failureSchema, evs)},
		partition{DatasetAllocations, logDay, encodeRows(allocationSchema, allocs)},
		partition{DatasetJobSeries, logDay, encodeRows(jobWindowSchema, windows)},
		partition{DatasetExemplar, logDay, encodeRows(gpuSampleSchema, exemplar)})
	err = parallel.ForEachErr(len(parts), 0, func(i int) error {
		p := parts[i]
		return dataset(dir, p.dataset).WriteDayCodec(p.day, p.table, store.CodecDelta)
	})
	if err != nil {
		return err
	}
	return dataset(dir, DatasetRunMeta).WriteDayCodec(logDay, ManifestTable(m), store.CodecDelta)
}

// spanDays is how many day partitions a run of spanSec seconds may hold:
// its days, and at least the one the whole-run logs and run-meta live in.
func spanDays(spanSec int64) int { return max(int((spanSec+daySec-1)/daySec), logDay+1) }

// BeginArchive readies each of dirs, before any partition is written, for a
// run of spanSec seconds that writes its run-meta and the datasets named in
// writes (nil: it may write any). It refuses, naming the files, when any of
// them still holds days of a longer run (StaleFiles) or partitions of a
// dataset outside writes, which would be read beside the run as its own;
// only then does it remove their old run-meta, so a refused run touches
// nothing and, from here until the run commits its own, no directory holds
// a committed run.
func BeginArchive(spanSec int64, writes []string, dirs ...string) error {
	for _, dir := range dirs {
		stale, err := StaleFiles(dir, spanSec)
		if err != nil {
			return err
		}
		if len(stale) > 0 {
			return fmt.Errorf("source: %s holds partitions of a longer run that this %d-day run would not overwrite (%s): archive into an empty directory or remove them",
				dir, spanDays(spanSec), strings.Join(stale, ", "))
		}
		if writes == nil {
			continue
		}
		names, err := store.Datasets(dir)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		var foreign []string
		for _, name := range names {
			if name == DatasetRunMeta || slices.Contains(writes, name) {
				continue
			}
			ds := dataset(dir, name)
			days, err := ds.Days()
			if err != nil {
				return err
			}
			for _, day := range days {
				foreign = append(foreign, ds.DayFile(day))
			}
		}
		if len(foreign) > 0 {
			return fmt.Errorf("source: %s holds partitions of datasets this run does not write (%s): archive into an empty directory or remove them",
				dir, strings.Join(foreign, ", "))
		}
	}
	for _, dir := range dirs {
		err := os.Remove(filepath.Join(dir, dataset(dir, DatasetRunMeta).DayFile(logDay)))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// StaleFiles lists the partitions, of any dataset in dir, at a day index
// outside a run of spanSec seconds: what such a run neither writes nor may be
// read beside. A missing dir holds none.
func StaleFiles(dir string, spanSec int64) ([]string, error) {
	names, err := store.Datasets(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) { // no directory: nothing archived here yet
		return nil, err
	}
	var stale []string
	for _, name := range names {
		ds := dataset(dir, name)
		have, err := ds.Days()
		if err != nil {
			return nil, err
		}
		for _, day := range have {
			if day >= spanDays(spanSec) {
				stale = append(stale, ds.DayFile(day))
			}
		}
	}
	return stale, nil
}
