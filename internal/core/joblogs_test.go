package core

import (
	"testing"

	"repro/internal/source"
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
	allocs := testAllocations(t)
	if len(rows) != len(allocs) {
		t.Fatalf("rows = %d, want %d", len(rows), len(allocs))
	}
	for i, row := range rows {
		a := &allocs[i]
		want := source.Allocation{AllocationID: a.Job.ID, User: a.Job.User, Project: a.Job.Project,
			Domain: int(a.Job.Domain), Class: int(a.Job.Class), Nodes: a.Job.Nodes,
			SubmitTime: a.Job.SubmitTime, BeginTime: a.StartTime, EndTime: a.EndTime}
		if row != want || row.User == "" || row.Project == "" {
			t.Fatalf("row %d: %+v, want %+v", i, row, want)
		}
	}
}
