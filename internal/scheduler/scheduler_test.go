package scheduler

import (
	"cmp"
	"slices"
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
	res, err := ScheduleWithPolicy(jobs, 8, Policy{})
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
	if busy := nodeSeconds(res.Allocations); busy != 800 {
		t.Errorf("busy = %d, want 800", busy)
	}
}

func TestScheduleQueuesWhenFull(t *testing.T) {
	jobs := []workload.Job{
		mkJob(1, 0, 8, 100),
		mkJob(2, 10, 8, 50),
	}
	res, err := ScheduleWithPolicy(jobs, 8, Policy{})
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
	res, err := ScheduleWithPolicy(jobs, nodes, Policy{})
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
	res, err := ScheduleWithPolicy(jobs, 16, Policy{})
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
	res, err := ScheduleWithPolicy(jobs, 8, Policy{})
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
	if _, err := ScheduleWithPolicy(nil, 0, Policy{}); err == nil {
		t.Error("zero nodes must error")
	}
	unsorted := []workload.Job{mkJob(1, 100, 1, 10), mkJob(2, 50, 1, 10)}
	if _, err := ScheduleWithPolicy(unsorted, 8, Policy{}); err == nil {
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
	res, err := ScheduleWithPolicy(jobs, 8, Policy{})
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
	res, err := ScheduleWithPolicy(jobs, 16, Policy{})
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
	res, err := ScheduleWithPolicy(jobs, 8, Policy{})
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

func TestScheduleRealisticPopulation(t *testing.T) {
	cfg := workload.GenConfig{
		Seed: 3, StartTime: 0, SpanSec: 7 * 86400, Jobs: 2000,
		MaxNodes: 256, ProjectsPerDomain: 3,
	}
	jobs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ScheduleWithPolicy(jobs, 256, Policy{})
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
	first, last := res.Allocations[0].StartTime, int64(0)
	for _, a := range res.Allocations {
		last = max(last, a.EndTime)
	}
	if u := float64(nodeSeconds(res.Allocations)) / float64(256*(last-first)); u <= 0 || u > 1 {
		t.Errorf("utilization over the makespan = %v", u)
	}
}

// nodeSeconds sums the allocations' node-seconds.
func nodeSeconds(allocs []Allocation) int64 {
	var sum int64
	for _, a := range allocs {
		sum += int64(len(a.NodeIDs)) * (a.EndTime - a.StartTime)
	}
	return sum
}

// benchmarkJobs is a month of Summit-sized jobs.
func benchmarkJobs(b *testing.B) []workload.Job {
	jobs, err := workload.Generate(workload.GenConfig{
		Seed: 3, StartTime: 0, SpanSec: 30 * 86400, Jobs: 5000,
		MaxNodes: 4608, ProjectsPerDomain: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return jobs
}

func BenchmarkSchedule(b *testing.B) {
	jobs := benchmarkJobs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleWithPolicy(jobs, 4626, Policy{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleCapped schedules the same month under paper §8's middle
// cap: 0.116 MW of the power-cap study's 0.1455 MW uncapped peak, here
// applied to the uncapped schedule's estimated peak.
func BenchmarkScheduleCapped(b *testing.B) {
	jobs := benchmarkJobs(b)
	const nodes = 4626
	base, err := ScheduleWithPolicy(jobs, nodes, Policy{})
	if err != nil {
		b.Fatal(err)
	}
	pol := Policy{PowerCap: units.Watts(0.116 / 0.1455 * peakEstimate(base.Allocations, nodes))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleWithPolicy(jobs, nodes, pol); err != nil {
			b.Fatal(err)
		}
	}
}

// peakEstimate is the highest estimated power, idle floor included, that
// allocs draw at any one time.
func peakEstimate(allocs []Allocation, nodes int) float64 {
	idle := float64(workload.IdleNodePower().Total())
	type step struct {
		t int64
		w float64
	}
	var steps []step
	for _, a := range allocs {
		w := float64(estimate(&a.Job)) - idle*float64(a.Job.Nodes)
		steps = append(steps, step{a.StartTime, w}, step{a.EndTime, -w})
	}
	slices.SortFunc(steps, func(x, y step) int { return cmp.Or(cmp.Compare(x.t, y.t), cmp.Compare(x.w, y.w)) })
	peak, sum := 0.0, 0.0
	for _, s := range steps {
		sum += s.w
		peak = max(peak, sum)
	}
	return idle*float64(nodes) + peak
}
