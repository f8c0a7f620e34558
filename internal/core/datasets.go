package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/topology"
)

// WriteDatasets archives the run data into dir, the writers in also beside
// it (source.WriteArchive). The layout — datasets, columns, codecs — is
// internal/source's; the run reaches its one writer as the same RunSource
// the live analyses read.
func WriteDatasets(dir string, d *RunData, also ...func() error) error {
	return source.WriteArchive(dir, d.Source(), also...)
}

// DatasetNodePower is the per-node window dataset (the paper's Dataset 0:
// per-node per-component 10-second aggregates). It is opt-in because its
// volume scales with nodes × windows.
const DatasetNodePower = source.DatasetNodePower

// NodeDatasetWriter is a sim.Observer that archives per-node input-power
// window statistics day by day — the Dataset 0 equivalent. It only buffers
// the day's rows; source.WriteNodeDay writes each day as one file, the day
// partition followed by its pre-aggregate companion, which the query tier
// answers aligned rollups from without scanning a single per-node row.
//
// A finished day is flushed while the simulation runs on into the next: one
// flush is in flight at most, over two day buffers that swap at midnight (the
// second sized by the first day, so neither grows again), and a midnight
// waits for the flush of the day before. The first flush error stops every
// later write and is what Close returns. Close must be called: it alone
// waits for the last flush.
type NodeDatasetWriter struct {
	dir    string
	floor  *topology.Floor // nil: no pre-aggregate companion
	day    int
	dayEnd int64 // 0: nothing observed yet
	rows   *source.NodeRows
	spare  *source.NodeRows // the other day buffer, being flushed while flushed != nil
	// flushed delivers the result of the flush in flight; nil when none is.
	flushed chan error
	err     error
}

// NewNodeDatasetWriter archives into dir. site selects the floor preset the
// cluster instantiates ("" = summit), whose cabinet/switchboard geometry the
// pre-aggregate companion follows; nodes <= 0 disables the companion.
func NewNodeDatasetWriter(dir string, nodes int, site string) (*NodeDatasetWriter, error) {
	w := &NodeDatasetWriter{dir: dir, rows: new(source.NodeRows), spare: new(source.NodeRows)}
	if nodes > 0 {
		floor, err := siteFloor(site, nodes)
		if err != nil {
			return nil, fmt.Errorf("core: node dataset pre-aggregates: %w", err)
		}
		w.floor = floor
	}
	return w, nil
}

// Observe implements sim.Observer.
func (w *NodeDatasetWriter) Observe(snap *sim.Snapshot) {
	if w.err != nil {
		return
	}
	if w.dayEnd == 0 {
		w.dayEnd = snap.T + 86400
	}
	if snap.T >= w.dayEnd {
		if w.flush(); w.err != nil {
			return
		}
		w.day++
		w.dayEnd += 86400
	}
	for i := range snap.NodeStat {
		w.rows.Append(i, snap.NodeStat[i])
	}
}

// flush hands the buffered day to a flush of its own and swaps in the other
// buffer, once the flush that was reading that one is done.
func (w *NodeDatasetWriter) flush() {
	if w.wait(); w.err != nil {
		return
	}
	day, full := w.day, w.rows
	w.rows, w.spare = w.spare, full
	w.rows.Reset(full.Len())
	w.flushed = make(chan error, 1)
	go func(done chan<- error) {
		done <- source.WriteNodeDay(w.dir, day, full, w.floor)
	}(w.flushed)
}

// wait blocks until no flush is in flight and keeps the first error.
func (w *NodeDatasetWriter) wait() {
	if w.flushed == nil {
		return
	}
	if err := <-w.flushed; w.err == nil {
		w.err = err
	}
	w.flushed = nil
}

// Close writes the final partition once the flush before it is done, and
// reports the first error of any flush.
func (w *NodeDatasetWriter) Close() error {
	if w.wait(); w.err == nil {
		w.err = source.WriteNodeDay(w.dir, w.day, w.rows, w.floor)
		w.rows.Reset(0)
	}
	return w.err
}
