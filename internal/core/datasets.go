package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/topology"
)

// WriteDatasets archives the run data into dir. The layout — datasets,
// columns, codecs — is internal/source's; the run reaches its one writer as
// the same RunSource the live analyses read.
func WriteDatasets(dir string, d *RunData) error {
	return source.WriteArchive(dir, d.Source())
}

// DatasetNodePower is the per-node window dataset (the paper's Dataset 0:
// per-node per-component 10-second aggregates). It is opt-in because its
// volume scales with nodes × windows.
const DatasetNodePower = source.DatasetNodePower

// NodeDatasetWriter is a sim.Observer that archives per-node input-power
// window statistics day by day — the Dataset 0 equivalent. It only buffers
// the day's rows; source.WriteNodeDay writes each day partition together
// with its pre-aggregate companion, which the query tier answers aligned
// rollups from without scanning a single per-node row.
type NodeDatasetWriter struct {
	dir    string
	floor  *topology.Floor // nil: no pre-aggregate companion
	day    int
	dayEnd int64 // 0: nothing observed yet
	rows   source.NodeRows
	err    error
}

// NewNodeDatasetWriter archives into dir. site selects the floor preset the
// cluster instantiates ("" = summit), whose cabinet/switchboard geometry the
// pre-aggregate companion follows; nodes <= 0 disables the companion.
func NewNodeDatasetWriter(dir string, nodes int, site string) (*NodeDatasetWriter, error) {
	w := &NodeDatasetWriter{dir: dir}
	if nodes > 0 {
		tcfg, err := topology.PresetScaled(site, nodes)
		if err != nil {
			return nil, fmt.Errorf("core: node dataset pre-aggregates: %w", err)
		}
		if w.floor, err = topology.New(tcfg); err != nil {
			return nil, fmt.Errorf("core: node dataset pre-aggregates: %w", err)
		}
	}
	return w, nil
}

// AttachNodeDataset is the CollectRun attachment that archives the run's
// per-node dataset into dir, on the run's own floor.
func AttachNodeDataset(dir string) Attach {
	return func(s *sim.Sim) (sim.Observer, error) {
		cfg := s.Config()
		return NewNodeDatasetWriter(dir, cfg.Nodes, cfg.Site)
	}
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
		w.flush()
		w.day++
		w.dayEnd += 86400
	}
	for i := range snap.NodeStat {
		w.rows.Append(i, snap.NodeStat[i])
	}
}

func (w *NodeDatasetWriter) flush() {
	if w.err == nil {
		w.err = source.WriteNodeDay(w.dir, w.day, &w.rows, w.floor)
	}
}

// Close flushes the final partition and reports any deferred error.
func (w *NodeDatasetWriter) Close() error {
	w.flush()
	return w.err
}
