// Package scheduler simulates Summit's batch scheduler: it turns a stream
// of job requests into node allocations over time, producing the allocation
// history logs (paper Datasets C and D) that the job-aware analyses join
// against.
//
// The policy is a simplified LSF: leadership classes have priority, jobs
// within a class run first-come-first-served, and smaller jobs backfill
// into free nodes while big jobs wait. Node placement prefers contiguous
// blocks, which gives large jobs the spatial locality visible in the
// paper's floor heatmaps (Figure 17).
package scheduler

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

// Allocation is one job's placement: the scheduler's output record.
type Allocation struct {
	Job       workload.Job
	StartTime int64 // unix seconds
	EndTime   int64 // unix seconds (actual completion)
	NodeIDs   []topology.NodeID
}

// Result is the outcome of scheduling a job population.
type Result struct {
	Allocations []Allocation // ordered by start time
	Skipped     []workload.Job
}

// running is the completion-ordered heap entry.
type running struct {
	end   int64
	alloc int     // index into result allocations
	power float64 // estimated dynamic power it holds against the cap
}

type runHeap []running

func (h runHeap) Len() int            { return len(h) }
func (h runHeap) Less(i, j int) bool  { return h[i].end < h[j].end }
func (h runHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x interface{}) { *h = append(*h, x.(running)) }
func (h *runHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// freePool tracks free nodes and hands out contiguous-preferring blocks.
type freePool struct {
	free []bool
	n    int // count of free nodes
}

func newFreePool(nodes int) *freePool {
	f := &freePool{free: make([]bool, nodes), n: nodes}
	for i := range f.free {
		f.free[i] = true
	}
	return f
}

// take removes k nodes from the pool using the given placement strategy.
// Returns nil if fewer than k nodes are free. Output is sorted ascending.
func (f *freePool) take(k int, pl Placement) []topology.NodeID {
	if k > f.n || k <= 0 {
		return nil
	}
	var out []topology.NodeID
	switch pl {
	case PlacePacked:
		out = f.takePacked(k)
	case PlaceScatter:
		out = f.takeScatter(k)
	default:
		out = f.takeContiguous(k)
	}
	for _, id := range out {
		f.free[id] = false
	}
	f.n -= k
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// takeContiguous prefers the longest contiguous runs first so large jobs
// get compact placements (Summit's default; paper Figure 17 heatmaps).
func (f *freePool) takeContiguous(k int) []topology.NodeID {
	out := make([]topology.NodeID, 0, k)
	// Pass 1: collect contiguous runs.
	type run struct{ start, len int }
	var runs []run
	i := 0
	for i < len(f.free) {
		if !f.free[i] {
			i++
			continue
		}
		start := i
		for i < len(f.free) && f.free[i] {
			i++
		}
		runs = append(runs, run{start, i - start})
	}
	sort.Slice(runs, func(a, b int) bool {
		if runs[a].len != runs[b].len {
			return runs[a].len > runs[b].len
		}
		return runs[a].start < runs[b].start
	})
	for _, r := range runs {
		for j := 0; j < r.len && len(out) < k; j++ {
			out = append(out, topology.NodeID(r.start+j))
		}
		if len(out) == k {
			break
		}
	}
	return out
}

// takePacked fills the floor from node 0 upward: lowest-numbered free
// nodes first, concentrating heat (and the thermal gradient) at one end.
func (f *freePool) takePacked(k int) []topology.NodeID {
	out := make([]topology.NodeID, 0, k)
	for i := 0; i < len(f.free) && len(out) < k; i++ {
		if f.free[i] {
			out = append(out, topology.NodeID(i))
		}
	}
	return out
}

// takeScatter spreads the allocation evenly over the free nodes,
// distributing heat across the floor at the cost of spatial locality.
func (f *freePool) takeScatter(k int) []topology.NodeID {
	idx := make([]int, 0, f.n)
	for i, free := range f.free {
		if free {
			idx = append(idx, i)
		}
	}
	out := make([]topology.NodeID, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, topology.NodeID(idx[i*len(idx)/k]))
	}
	return out
}

func (f *freePool) release(ids []topology.NodeID) {
	for _, id := range ids {
		if f.free[id] {
			panic("scheduler: double release of node")
		}
		f.free[id] = true
	}
	f.n += len(ids)
}

// ScheduleWithPolicy runs the event-driven simulation over jobs (must be
// sorted by SubmitTime) on a system of the given node count. The zero
// policy is the baseline: FCFS+backfill, contiguous placement, no cap.
// Jobs larger than the system are reported in Skipped rather than failing
// the whole run. Under a constant cap, jobs whose standalone estimate
// exceeds the cap (over the idle floor) can never start and are skipped
// too; under a cap schedule they stay queued until a step grants headroom,
// and are skipped only if the schedule ends without one.
func ScheduleWithPolicy(jobs []workload.Job, nodes int, policy Policy) (*Result, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("scheduler: non-positive node count %d", nodes)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].SubmitTime < jobs[i-1].SubmitTime {
			return nil, fmt.Errorf("scheduler: jobs not sorted by submit time at %d", i)
		}
	}
	hasSchedule := len(policy.CapSchedule) > 0
	capped := policy.PowerCap > 0 || hasSchedule
	idleNode := float64(workload.IdleNodePower().Total())
	idleFloor := idleNode * float64(nodes)
	// headroomAt returns the dynamic-power budget in force at time t;
	// +Inf when uncapped at t.
	headroomAt := func(t int64) float64 {
		cap := policy.capAt(t)
		if cap <= 0 {
			return math.Inf(1)
		}
		return float64(cap) - idleFloor
	}
	if !hasSchedule && policy.PowerCap > 0 && headroomAt(0) <= 0 {
		return nil, fmt.Errorf("scheduler: power cap %v below idle floor %v",
			policy.PowerCap, units.Watts(idleFloor))
	}
	res := &Result{}
	pool := newFreePool(nodes)
	// queue holds the pending jobs in priority order, class ascending
	// (leadership first) then submit time; power[i] is queue[i]'s estimated
	// dynamic power, estimated once at arrival and only under a cap.
	var queue []workload.Job
	var power []float64
	var run runHeap
	runningPower := 0.0 // estimated dynamic power of running jobs
	insertQueued := func(j workload.Job, dynamic float64) {
		pos := sort.Search(len(queue), func(i int) bool {
			if queue[i].Class != j.Class {
				return queue[i].Class > j.Class
			}
			return queue[i].SubmitTime > j.SubmitTime
		})
		queue = slices.Insert(queue, pos, j)
		power = slices.Insert(power, pos, dynamic)
	}
	// drainAfterSec guards leadership jobs against backfill starvation:
	// once the head of the queue has waited this long, no lower-priority
	// job may start until it does (the system drains for it).
	const drainAfterSec = 6 * units.SecondsPerHour
	// tryStart scans the queue in priority order and starts everything
	// that fits in nodes and headroom (greedy backfill without
	// reservations).
	tryStart := func(now int64) {
		headroom := headroomAt(now)
		i := 0
		for i < len(queue) {
			if i > 0 && now-queue[0].SubmitTime > drainAfterSec {
				return // draining for the starved head job
			}
			j := queue[i]
			if runningPower+power[i] > headroom {
				i++
				continue
			}
			ids := pool.take(j.Nodes, policy.Placement)
			if ids == nil {
				i++
				continue
			}
			end := now + j.Duration
			res.Allocations = append(res.Allocations, Allocation{
				Job: j, StartTime: now, EndTime: end, NodeIDs: ids,
			})
			heap.Push(&run, running{end: end, alloc: len(res.Allocations) - 1, power: power[i]})
			runningPower += power[i]
			queue = append(queue[:i], queue[i+1:]...)
			power = append(power[:i], power[i+1:]...)
		}
	}
	const farFuture = int64(1) << 62
	prev := int64(-1) << 62
	next := 0
	for next < len(jobs) || run.Len() > 0 || len(queue) > 0 {
		// Next event: a completion, an arrival, or — while jobs queue —
		// a cap-schedule boundary that may open headroom.
		now := farFuture
		if run.Len() > 0 {
			now = run[0].end
		}
		if next < len(jobs) && jobs[next].SubmitTime < now {
			now = jobs[next].SubmitTime
		}
		if len(queue) > 0 {
			if b, ok := policy.nextCapBoundary(prev); ok && b < now {
				now = b
			}
		}
		if now == farFuture {
			// Queued jobs can never start. Under a cap schedule that is a
			// legitimate outcome (the final cap excludes them): report
			// them skipped. Without one it is a logic error.
			if hasSchedule {
				res.Skipped = append(res.Skipped, queue...)
				queue = nil
				break
			}
			return nil, fmt.Errorf("scheduler: %d jobs stuck in queue", len(queue))
		}
		// Completions go first: the jobs already queued get the nodes they
		// free before the jobs arriving in the same second join the queue
		// (the next pass, at the same now).
		if run.Len() > 0 && run[0].end == now {
			for run.Len() > 0 && run[0].end == now {
				r := heap.Pop(&run).(running)
				pool.release(res.Allocations[r.alloc].NodeIDs)
				runningPower -= r.power
			}
		} else {
			for next < len(jobs) && jobs[next].SubmitTime == now {
				j := jobs[next]
				next++
				dynamic := 0.0
				if capped {
					dynamic = max(float64(estimate(&j))-idleNode*float64(j.Nodes), 0)
				}
				// Under a constant cap an over-budget job can never start;
				// under a schedule a later step may admit it, so it queues.
				if j.Nodes > nodes || (!hasSchedule && dynamic > headroomAt(now)) {
					res.Skipped = append(res.Skipped, j)
					continue
				}
				insertQueued(j, dynamic)
			}
		}
		tryStart(now)
		prev = now
	}
	sortAllocations(res.Allocations)
	return res, nil
}

// sortAllocations orders allocations by start time, then job ID.
func sortAllocations(allocs []Allocation) {
	sort.Slice(allocs, func(a, b int) bool {
		if allocs[a].StartTime != allocs[b].StartTime {
			return allocs[a].StartTime < allocs[b].StartTime
		}
		return allocs[a].Job.ID < allocs[b].Job.ID
	})
}
