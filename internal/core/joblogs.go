package core

import (
	"encoding/csv"
	"io"
	"strconv"

	"repro/internal/topology"
)

// WritePerNodeCSV emits the paper's Dataset D (per-node allocation history)
// for external tooling, as the artifact appendix's CSV: one row per
// (job, node), with Summit-style hostnames resolved through the floor
// layout. No archive dataset holds an allocation's node list.
func WritePerNodeCSV(w io.Writer, d *RunData) error {
	m := d.src.RunMeta
	floor, err := siteFloor(m.Site, m.Nodes)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"allocation_id", "hostname", "begin_time", "end_time"}); err != nil {
		return err
	}
	for i := range d.Allocations {
		a := &d.Allocations[i]
		for _, id := range a.NodeIDs {
			rec := []string{
				strconv.FormatInt(a.Job.ID, 10),
				floor.Hostname(id),
				strconv.FormatInt(a.StartTime, 10),
				strconv.FormatInt(a.EndTime, 10),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
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
