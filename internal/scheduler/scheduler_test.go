package scheduler

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

func mkJob(id int64, submit int64, nodes int, duration int64) workload.Job {
	return workload.Job{
		ID: id, SubmitTime: submit, Nodes: nodes,
		WalltimeReq: duration, Duration: duration,
		Class:   units.ClassForNodes(nodes),
		Profile: workload.Archetypes()[0].Profile,
	}
}

func TestScheduleBasic(t *testing.T) {
	jobs := []workload.Job{
		mkJob(1, 0, 4, 100),
		mkJob(2, 10, 4, 100),
	}
	res, err := Schedule(jobs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Allocations) != 2 {
		t.Fatalf("allocations = %d", len(res.Allocations))
	}
	// Both fit simultaneously.
	if res.Allocations[0].StartTime != 0 || res.Allocations[1].StartTime != 10 {
		t.Errorf("start times %d, %d", res.Allocations[0].StartTime, res.Allocations[1].StartTime)
	}
	if res.NodeBusySec != 800 {
		t.Errorf("busy = %d, want 800", res.NodeBusySec)
	}
}

func TestScheduleQueuesWhenFull(t *testing.T) {
	jobs := []workload.Job{
		mkJob(1, 0, 8, 100),
		mkJob(2, 10, 8, 50),
	}
	res, err := Schedule(jobs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocations[1].StartTime != 100 {
		t.Errorf("second job started at %d, want 100", res.Allocations[1].StartTime)
	}
	if a := res.Allocations[1]; a.StartTime-a.Job.SubmitTime != 90 {
		t.Errorf("wait = %d, want 90", a.StartTime-a.Job.SubmitTime)
	}
}

func TestScheduleNoDoubleBooking(t *testing.T) {
	// Many overlapping jobs on a small system: at no time may a node be
	// allocated to two jobs.
	var jobs []workload.Job
	for i := int64(0); i < 60; i++ {
		jobs = append(jobs, mkJob(i+1, i*7, 1+int(i%13), 50+(i%11)*30))
	}
	const nodes = 32
	res, err := Schedule(jobs, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Allocations) != len(jobs) {
		t.Fatalf("allocated %d of %d", len(res.Allocations), len(jobs))
	}
	// Sweep time; check occupancy.
	var events []int64
	for _, a := range res.Allocations {
		events = append(events, a.StartTime, a.EndTime-1)
	}
	for _, tq := range events {
		owners := map[topology.NodeID]int64{}
		for _, a := range res.Allocations {
			if a.StartTime <= tq && tq < a.EndTime {
				for _, id := range a.NodeIDs {
					if prev, ok := owners[id]; ok {
						t.Fatalf("node %d owned by jobs %d and %d at t=%d", id, prev, a.Job.ID, tq)
					}
					owners[id] = a.Job.ID
					if int(id) >= nodes {
						t.Fatalf("node %d outside system", id)
					}
				}
			}
		}
	}
}

func TestScheduleAllocationSizes(t *testing.T) {
	jobs := []workload.Job{mkJob(1, 0, 5, 10), mkJob(2, 0, 3, 10)}
	res, err := Schedule(jobs, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Allocations {
		if len(a.NodeIDs) != a.Job.Nodes {
			t.Errorf("job %d got %d nodes, want %d", a.Job.ID, len(a.NodeIDs), a.Job.Nodes)
		}
		// IDs sorted and unique.
		for i := 1; i < len(a.NodeIDs); i++ {
			if a.NodeIDs[i] <= a.NodeIDs[i-1] {
				t.Errorf("job %d: unsorted/duplicate node ids", a.Job.ID)
			}
		}
	}
}

func TestScheduleSkipsOversized(t *testing.T) {
	jobs := []workload.Job{mkJob(1, 0, 100, 10), mkJob(2, 5, 4, 10)}
	res, err := Schedule(jobs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skipped) != 1 || res.Skipped[0].ID != 1 {
		t.Errorf("skipped = %v", res.Skipped)
	}
	if len(res.Allocations) != 1 || res.Allocations[0].Job.ID != 2 {
		t.Errorf("allocations = %v", res.Allocations)
	}
}

func TestScheduleErrors(t *testing.T) {
	if _, err := Schedule(nil, 0); err == nil {
		t.Error("zero nodes must error")
	}
	unsorted := []workload.Job{mkJob(1, 100, 1, 10), mkJob(2, 50, 1, 10)}
	if _, err := Schedule(unsorted, 8); err == nil {
		t.Error("unsorted jobs must error")
	}
}

func TestSchedulePriority(t *testing.T) {
	// System full; a class-1-ish big job and a small job queue up.
	// When space frees, the higher-priority (bigger class number is lower
	// priority) job must start first if it fits.
	jobs := []workload.Job{
		mkJob(1, 0, 8, 100), // occupies everything
		mkJob(2, 10, 2, 10), // small, submitted first
		mkJob(3, 20, 8, 10), // big
	}
	jobs[1].Class = units.Class5
	jobs[2].Class = units.Class1
	res, err := Schedule(jobs, 8)
	if err != nil {
		t.Fatal(err)
	}
	var big, small Allocation
	for _, a := range res.Allocations {
		switch a.Job.ID {
		case 2:
			small = a
		case 3:
			big = a
		}
	}
	if big.StartTime != 100 {
		t.Errorf("big job started at %d, want 100 (priority)", big.StartTime)
	}
	// Small job cannot run alongside big (8 nodes taken) — it waits.
	if small.StartTime < big.EndTime {
		t.Errorf("small started at %d before big finished at %d", small.StartTime, big.EndTime)
	}
}

func TestScheduleContiguousPlacement(t *testing.T) {
	jobs := []workload.Job{mkJob(1, 0, 6, 10)}
	res, err := Schedule(jobs, 16)
	if err != nil {
		t.Fatal(err)
	}
	ids := res.Allocations[0].NodeIDs
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Errorf("placement not contiguous on empty system: %v", ids)
		}
	}
}

func TestScheduleDrainPreventsStarvation(t *testing.T) {
	// A stream of small jobs that would otherwise perpetually backfill,
	// plus one full-system job. The big job must eventually run.
	var jobs []workload.Job
	jobs = append(jobs, mkJob(1, 0, 4, 3600))
	big := mkJob(2, 10, 8, 100)
	big.Class = units.Class1
	jobs = append(jobs, big)
	for i := int64(0); i < 200; i++ {
		j := mkJob(3+i, 20+i*60, 2, 3600)
		j.Class = units.Class5
		jobs = append(jobs, j)
	}
	res, err := Schedule(jobs, 8)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range res.Allocations {
		if a.Job.ID == 2 {
			found = true
			if wait := a.StartTime - a.Job.SubmitTime; wait > 24*3600 {
				t.Errorf("big job waited %d s — starvation guard failed", wait)
			}
		}
	}
	if !found {
		t.Fatal("big job never ran")
	}
}

func TestUtilization(t *testing.T) {
	jobs := []workload.Job{mkJob(1, 0, 8, 100)}
	res, err := Schedule(jobs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if u := res.Utilization(8); u != 1.0 {
		t.Errorf("utilization = %v, want 1", u)
	}
	empty := &Result{}
	if empty.Utilization(8) != 0 {
		t.Error("empty result utilization must be 0")
	}
}

func TestScheduleRealisticPopulation(t *testing.T) {
	cfg := workload.GenConfig{
		Seed: 3, StartTime: 0, SpanSec: 7 * 86400, Jobs: 2000,
		MaxNodes: 256, ProjectsPerDomain: 3,
	}
	jobs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Schedule(jobs, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Allocations)+len(res.Skipped) != len(jobs) {
		t.Fatalf("conservation violated: %d + %d != %d",
			len(res.Allocations), len(res.Skipped), len(jobs))
	}
	if len(res.Skipped) != 0 {
		t.Errorf("%d jobs skipped on adequate system", len(res.Skipped))
	}
	u := res.Utilization(256)
	if u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
}

func BenchmarkSchedule(b *testing.B) {
	cfg := workload.GenConfig{
		Seed: 3, StartTime: 0, SpanSec: 30 * 86400, Jobs: 5000,
		MaxNodes: 4608, ProjectsPerDomain: 3,
	}
	jobs, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(jobs, 4626); err != nil {
			b.Fatal(err)
		}
	}
}
