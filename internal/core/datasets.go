package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/topology"
)

// WriteDatasets archives the run data into dir (source.WriteArchive). The
// layout — datasets, columns, codecs — is internal/source's; the run reaches
// its one writer as the same RunSource the live analyses read.
func WriteDatasets(dir string, d *RunData) error {
	return source.WriteArchive(dir, d.Source())
}

// DatasetNodePower is the per-node window dataset (the paper's Dataset 0:
// per-node per-component 10-second aggregates). It is opt-in because its
// volume scales with nodes × windows.
const DatasetNodePower = source.DatasetNodePower

// NodeDatasetWriter is a sim.Observer that archives per-node input-power
// window statistics — the Dataset 0 equivalent — through a
// source.NodeDayWriter: one file per day, the day partition followed by the
// pre-aggregate companion the query tier answers aligned rollups from.
//
// Rows are encoded while the simulation runs on: one flush is in flight at
// most, over two buffers of nodeBlockRows rows that swap when one fills; the
// day writer cuts a buffer at midnight and commits the day it closes. The
// first flush error stops every later write and is what Close returns. Close
// must be called: it alone waits for the last flush and commits the last day.
type NodeDatasetWriter struct {
	days  *source.NodeDayWriter
	rows  []source.NodeWindow // the buffer being filled
	spare []source.NodeWindow // the other buffer, being flushed while flushed != nil
	// flushed delivers the result of the flush in flight; nil when none is.
	flushed chan error
	err     error
}

// nodeBlockRows is the size of a NodeDatasetWriter buffer.
const nodeBlockRows = 1 << 14

// NewNodeDatasetWriter archives into dir. site selects the floor preset the
// cluster instantiates ("" = summit), whose cabinet/switchboard geometry the
// pre-aggregate companion follows; nodes <= 0 disables the companion and the
// stride.
func NewNodeDatasetWriter(dir string, nodes int, site string) (*NodeDatasetWriter, error) {
	var floor *topology.Floor
	if nodes > 0 {
		var err error
		if floor, err = siteFloor(site, nodes); err != nil {
			return nil, fmt.Errorf("core: node dataset pre-aggregates: %w", err)
		}
	}
	return &NodeDatasetWriter{
		days: source.NewNodeDayWriter(dir, nodes, floor),
		rows: make([]source.NodeWindow, 0, nodeBlockRows), spare: make([]source.NodeWindow, 0, nodeBlockRows),
	}, nil
}

// Observe implements sim.Observer.
func (w *NodeDatasetWriter) Observe(snap *sim.Snapshot) {
	for i := 0; i < len(snap.NodeStat) && w.err == nil; i++ {
		if len(w.rows) == cap(w.rows) {
			w.flush()
		}
		w.rows = append(w.rows, source.NodeWindow{Node: int64(i), Stat: snap.NodeStat[i]})
	}
}

// flush hands the full buffer to a flush of its own and swaps in the other
// buffer, once the flush that was reading that one is done.
func (w *NodeDatasetWriter) flush() {
	if w.wait(); w.err != nil {
		return
	}
	block := w.rows
	w.rows, w.spare = w.spare[:0], block
	w.flushed = make(chan error, 1)
	go func(done chan<- error) { done <- w.days.Append(block) }(w.flushed)
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

// Close commits the last day once the flush before it is done, and reports
// the first error of any flush. A writer that observed no window writes
// nothing.
func (w *NodeDatasetWriter) Close() error {
	if w.wait(); w.err == nil {
		if w.err = w.days.Append(w.rows); w.err == nil {
			w.err = w.days.Close()
		}
		w.rows = w.rows[:0]
	}
	return w.err
}

// siteFloor builds the floor a run of nodes on the named site preset ("" =
// summit) instantiates: the layout sim.New gives it.
func siteFloor(site string, nodes int) (*topology.Floor, error) {
	tcfg, err := topology.PresetScaled(site, nodes)
	if err != nil {
		return nil, err
	}
	return topology.New(tcfg)
}
