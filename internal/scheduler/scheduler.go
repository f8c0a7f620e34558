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
	// NodeBusySec counts allocated node-seconds, for utilization.
	NodeBusySec int64
	// SpanSec is the makespan from first start to last end.
	SpanSec int64
}

// Utilization returns allocated node-seconds over available node-seconds.
func (r *Result) Utilization(nodes int) float64 {
	if r.SpanSec <= 0 || nodes <= 0 {
		return 0
	}
	return float64(r.NodeBusySec) / float64(int64(nodes)*r.SpanSec)
}

// running is the completion-ordered heap entry.
type running struct {
	end   int64
	alloc int // index into result allocations
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

// Schedule runs the event-driven simulation over jobs (must be sorted by
// SubmitTime) on a system of the given node count. Jobs larger than the
// system are reported in Skipped rather than failing the whole run.
func Schedule(jobs []workload.Job, nodes int) (*Result, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("scheduler: non-positive node count %d", nodes)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].SubmitTime < jobs[i-1].SubmitTime {
			return nil, fmt.Errorf("scheduler: jobs not sorted by submit time at %d", i)
		}
	}
	res := &Result{}
	pool := newFreePool(nodes)
	var queue []workload.Job // pending, priority-ordered
	var run runHeap
	insertQueued := func(j workload.Job) {
		// Priority: class ascending (leadership first), then submit time.
		pos := sort.Search(len(queue), func(i int) bool {
			if queue[i].Class != j.Class {
				return queue[i].Class > j.Class
			}
			return queue[i].SubmitTime > j.SubmitTime
		})
		queue = append(queue, workload.Job{})
		copy(queue[pos+1:], queue[pos:])
		queue[pos] = j
	}
	// drainAfterSec guards leadership jobs against backfill starvation:
	// once the head of the queue has waited this long, no lower-priority
	// job may start until it does (the system drains for it).
	const drainAfterSec = 6 * units.SecondsPerHour
	// tryStart scans the queue in priority order and starts everything
	// that fits (greedy backfill without reservations).
	tryStart := func(now int64) {
		i := 0
		for i < len(queue) {
			if i > 0 && now-queue[0].SubmitTime > drainAfterSec {
				return // draining for the starved head job
			}
			j := queue[i]
			ids := pool.take(j.Nodes, PlaceContiguous)
			if ids == nil {
				i++
				continue
			}
			end := now + j.Duration
			res.Allocations = append(res.Allocations, Allocation{
				Job: j, StartTime: now, EndTime: end, NodeIDs: ids,
			})
			heap.Push(&run, running{end: end, alloc: len(res.Allocations) - 1})
			res.NodeBusySec += int64(j.Nodes) * j.Duration
			queue = append(queue[:i], queue[i+1:]...)
		}
	}
	next := 0
	for next < len(jobs) || run.Len() > 0 || len(queue) > 0 {
		// Determine the next event time.
		var now int64
		switch {
		case run.Len() > 0 && (next >= len(jobs) || run[0].end <= jobs[next].SubmitTime):
			now = run[0].end
			for run.Len() > 0 && run[0].end == now {
				r := heap.Pop(&run).(running)
				pool.release(res.Allocations[r.alloc].NodeIDs)
			}
		case next < len(jobs):
			now = jobs[next].SubmitTime
			for next < len(jobs) && jobs[next].SubmitTime == now {
				j := jobs[next]
				next++
				if j.Nodes > nodes {
					res.Skipped = append(res.Skipped, j)
					continue
				}
				insertQueued(j)
			}
		default:
			// Queue non-empty but nothing running and no arrivals left:
			// jobs in queue can never start (should be impossible since
			// oversized jobs are skipped).
			return nil, fmt.Errorf("scheduler: %d jobs stuck in queue", len(queue))
		}
		tryStart(now)
	}
	finalizeResult(res)
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
