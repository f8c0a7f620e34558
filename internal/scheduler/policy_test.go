package scheduler

import (
	"slices"
	"testing"

	"repro/internal/units"
	"repro/internal/workload"
)

func gpuHeavyJob(id int64, submit int64, nodes int, dur int64) workload.Job {
	j := mkJob(id, submit, nodes, dur)
	j.Profile = workload.Profile{
		GPUUtil: 0.95, CPUUtil: 0.4, PeriodSec: 200, Duty: 0.9,
		SwingFrac: 0.1, RampSec: 10, NoiseFrac: 0.02,
	}
	return j
}

func TestDefaultNodePowerEstimate(t *testing.T) {
	j := gpuHeavyJob(1, 0, 4, 100)
	est := DefaultNodePowerEstimate(&j)
	// A hot GPU job draws well above idle and below the node cap.
	idle := workload.IdleNodePower().Total()
	if est <= idle || est > units.NodeMaxPower {
		t.Errorf("estimate = %v, want (idle %v, %v]", est, idle, units.NodeMaxPower)
	}
	cold := mkJob(2, 0, 4, 100)
	cold.Profile = workload.Profile{GPUUtil: 0.05, CPUUtil: 0.2,
		PeriodSec: 100, Duty: 0.5, SwingFrac: 0.2, RampSec: 5}
	if e2 := DefaultNodePowerEstimate(&cold); e2 >= est {
		t.Errorf("cold job estimate %v must be below hot %v", e2, est)
	}
}

func TestScheduleWithPolicyCapsConcurrency(t *testing.T) {
	// Two hot jobs that together exceed the cap must serialize even
	// though nodes are available for both.
	jobs := []workload.Job{
		gpuHeavyJob(1, 0, 4, 100),
		gpuHeavyJob(2, 0, 4, 100),
	}
	est := float64(DefaultNodePowerEstimate(&jobs[0])) * 4
	idle := float64(workload.IdleNodePower().Total()) * 16
	// Cap allows one job's dynamic power but not two.
	dynamic := est - float64(workload.IdleNodePower().Total())*4
	cap := units.Watts(idle + dynamic*1.5)
	res, err := ScheduleWithPolicy(jobs, 16, Policy{PowerCap: cap})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Allocations) != 2 {
		t.Fatalf("allocations = %d", len(res.Allocations))
	}
	a, b := res.Allocations[0], res.Allocations[1]
	if b.StartTime < a.EndTime {
		t.Errorf("jobs overlap under cap: [%d,%d) and [%d,%d)",
			a.StartTime, a.EndTime, b.StartTime, b.EndTime)
	}
}

func TestScheduleWithPolicyAllowsLowPowerBackfill(t *testing.T) {
	// A hot job takes the power budget; a cold job must still run
	// concurrently because its dynamic power is tiny.
	hot := gpuHeavyJob(1, 0, 4, 1000)
	cold := mkJob(2, 10, 4, 100)
	cold.Profile = workload.Profile{GPUUtil: 0.02, CPUUtil: 0.1,
		PeriodSec: 100, Duty: 0.5, SwingFrac: 0, RampSec: 0}
	est := float64(DefaultNodePowerEstimate(&hot)) * 4
	idle := float64(workload.IdleNodePower().Total()) * 16
	dynamic := est - float64(workload.IdleNodePower().Total())*4
	cap := units.Watts(idle + dynamic*1.3)
	res, err := ScheduleWithPolicy([]workload.Job{hot, cold}, 16, Policy{PowerCap: cap})
	if err != nil {
		t.Fatal(err)
	}
	var coldAlloc *Allocation
	for i := range res.Allocations {
		if res.Allocations[i].Job.ID == 2 {
			coldAlloc = &res.Allocations[i]
		}
	}
	if coldAlloc == nil {
		t.Fatal("cold job never ran")
	}
	if coldAlloc.StartTime >= 1000 {
		t.Errorf("cold job waited for hot job to finish (start %d)", coldAlloc.StartTime)
	}
}

func TestScheduleWithPolicySkipsInfeasible(t *testing.T) {
	hot := gpuHeavyJob(1, 0, 8, 100)
	idle := float64(workload.IdleNodePower().Total()) * 8
	// Cap barely above the idle floor: the hot job can never start.
	res, err := ScheduleWithPolicy([]workload.Job{hot}, 8,
		Policy{PowerCap: units.Watts(idle + 100)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skipped) != 1 || len(res.Allocations) != 0 {
		t.Errorf("allocations %d skipped %d, want 0/1",
			len(res.Allocations), len(res.Skipped))
	}
}

func TestScheduleWithPolicyErrors(t *testing.T) {
	if _, err := ScheduleWithPolicy(nil, 0, Policy{PowerCap: 1e6}); err == nil {
		t.Error("zero nodes accepted")
	}
	// Cap below idle floor.
	if _, err := ScheduleWithPolicy(nil, 8, Policy{PowerCap: 10}); err == nil {
		t.Error("cap below idle floor accepted")
	}
	unsorted := []workload.Job{mkJob(1, 100, 1, 10), mkJob(2, 50, 1, 10)}
	if _, err := ScheduleWithPolicy(unsorted, 8, Policy{PowerCap: 1e9}); err == nil {
		t.Error("unsorted jobs accepted")
	}
}

func TestPolicyNoDoubleBooking(t *testing.T) {
	var jobs []workload.Job
	for i := int64(0); i < 40; i++ {
		jobs = append(jobs, gpuHeavyJob(i+1, i*11, 1+int(i%7), 80+(i%5)*40))
	}
	res, err := ScheduleWithPolicy(jobs, 16, Policy{PowerCap: 26e3})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Allocations {
		for _, b := range res.Allocations {
			if a.Job.ID >= b.Job.ID {
				continue
			}
			if a.StartTime < b.EndTime && b.StartTime < a.EndTime {
				for _, id := range a.NodeIDs {
					if slices.Contains(b.NodeIDs, id) {
						t.Fatalf("node %d double-booked by %d and %d", id, a.Job.ID, b.Job.ID)
					}
				}
			}
		}
	}
}
