package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/source"
	"repro/internal/topology"
)

// TestAllocationLogRoundTrip: the archived allocation log holds every
// allocation of the run, in order, with all nine Dataset C columns.
func TestAllocationLogRoundTrip(t *testing.T) {
	d := testData(t)
	dir := t.TempDir()
	if err := WriteDatasets(dir, d); err != nil {
		t.Fatal(err)
	}
	src, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := src.Allocations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(d.Allocations) {
		t.Fatalf("rows = %d, want %d", len(rows), len(d.Allocations))
	}
	for i, row := range rows {
		a := &d.Allocations[i]
		want := source.Allocation{AllocationID: a.Job.ID, User: a.Job.User, Project: a.Job.Project,
			Domain: int(a.Job.Domain), Class: int(a.Job.Class), Nodes: a.Job.Nodes,
			SubmitTime: a.Job.SubmitTime, BeginTime: a.StartTime, EndTime: a.EndTime}
		if row != want || row.User == "" || row.Project == "" {
			t.Fatalf("row %d: %+v, want %+v", i, row, want)
		}
	}
}

func TestPerNodeCSV(t *testing.T) {
	d := testData(t)
	var buf bytes.Buffer
	if err := WritePerNodeCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	wantRows := 0
	for i := range d.Allocations {
		wantRows += len(d.Allocations[i].NodeIDs)
	}
	if len(lines) != wantRows+1 {
		t.Fatalf("lines = %d, want %d (+header)", len(lines), wantRows+1)
	}
	// Every hostname must name a node of the floor.
	floor, err := topology.New(topology.ScaledConfig(d.Source().RunMeta.Nodes))
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]bool{}
	for id := topology.NodeID(0); int(id) < floor.Nodes(); id++ {
		hosts[floor.Hostname(id)] = true
	}
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 4 {
			t.Fatalf("bad row %q", line)
		}
		if !hosts[fields[1]] {
			t.Fatalf("hostname %q names no node of the floor", fields[1])
		}
	}
}
