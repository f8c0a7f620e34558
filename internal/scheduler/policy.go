package scheduler

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"repro/internal/units"
	"repro/internal/workload"
)

// Placement selects the node-placement strategy the free pool uses.
type Placement int

const (
	// PlaceContiguous prefers the longest free runs (Summit's default).
	PlaceContiguous Placement = iota
	// PlacePacked fills from node 0 upward, concentrating load.
	PlacePacked
	// PlaceScatter spreads allocations evenly over the free nodes.
	PlaceScatter
)

func (p Placement) String() string {
	switch p {
	case PlacePacked:
		return "packed"
	case PlaceScatter:
		return "scatter"
	default:
		return "contiguous"
	}
}

// ParsePlacement maps a placement name to its enum; "" means contiguous.
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case "", "contiguous":
		return PlaceContiguous, nil
	case "packed":
		return PlacePacked, nil
	case "scatter":
		return PlaceScatter, nil
	}
	return 0, fmt.Errorf("%w: unknown placement %q (want contiguous, packed or scatter)", ErrPolicy, s)
}

// CapStep is one step of a power-cap schedule: from AtSec (unix seconds)
// onward the admission ceiling is Cap; zero Cap lifts the cap.
type CapStep struct {
	AtSec int64       `json:"at_sec"`
	Cap   units.Watts `json:"cap_w"`
}

// ErrPolicy marks an invalid scheduling policy; violations wrap it.
var ErrPolicy = errors.New("scheduler: invalid policy")

// Policy extends the baseline FCFS+backfill scheduler with the
// power-aware admission control the paper's conclusion argues for:
// "aggressive power and energy aware ... scheduling policies can have
// impact even on HPC deployments like Summit".
type Policy struct {
	// PowerCap is the admission ceiling on the estimated aggregate power
	// of running jobs (plus the idle floor). Zero disables the cap.
	PowerCap units.Watts
	// CapSchedule turns the cap into a step function of time: at time t
	// the ceiling is the Cap of the latest step with AtSec <= t, and
	// PowerCap before the first step. Steps must be time-ascending.
	// Running jobs are never interrupted; the cap gates admission only.
	CapSchedule []CapStep
	// Placement selects the node-placement strategy.
	Placement Placement
}

// Validate checks the policy's bounds with ErrPolicy-wrapped errors.
func (p *Policy) Validate() error {
	if p.PowerCap < 0 {
		return fmt.Errorf("%w: negative power cap %v", ErrPolicy, p.PowerCap)
	}
	if p.Placement < PlaceContiguous || p.Placement > PlaceScatter {
		return fmt.Errorf("%w: placement %d out of range", ErrPolicy, int(p.Placement))
	}
	for i, s := range p.CapSchedule {
		if s.Cap < 0 {
			return fmt.Errorf("%w: negative cap %v at schedule step %d", ErrPolicy, s.Cap, i)
		}
		if i > 0 && s.AtSec <= p.CapSchedule[i-1].AtSec {
			return fmt.Errorf("%w: cap schedule times not strictly increasing at step %d (%d after %d)",
				ErrPolicy, i, s.AtSec, p.CapSchedule[i-1].AtSec)
		}
	}
	return nil
}

// capAt returns the admission ceiling in force at time t (0 = uncapped).
func (p *Policy) capAt(t int64) units.Watts {
	cap := p.PowerCap
	for _, s := range p.CapSchedule {
		if s.AtSec > t {
			break
		}
		cap = s.Cap
	}
	return cap
}

// nextCapBoundary returns the first schedule step time strictly after t.
func (p *Policy) nextCapBoundary(t int64) (int64, bool) {
	for _, s := range p.CapSchedule {
		if s.AtSec > t {
			return s.AtSec, true
		}
	}
	return 0, false
}

// DefaultNodePowerEstimate predicts a job's plateau per-node power from
// its profile — the fingerprint-style estimate a production scheduler
// would keep per project.
func DefaultNodePowerEstimate(j *workload.Job) units.Watts {
	p := j.Profile
	p.NoiseFrac = 0
	base := math.Ceil(p.RampSec/p.PeriodSec+1) * p.PeriodSec
	return p.Power(0, 0, base+p.PeriodSec*p.Duty/2).Total()
}

// estimate returns the job's whole-allocation power estimate.
func estimate(j *workload.Job) units.Watts {
	return units.Watts(float64(DefaultNodePowerEstimate(j)) * float64(j.Nodes))
}

// ScheduleWithPolicy is Schedule with power-aware admission, cap
// schedules and placement strategies. Under a constant cap, jobs whose
// standalone estimate exceeds the cap (over the idle floor) can never
// start and are reported in Skipped; under a cap schedule they stay
// queued until a step grants headroom, and are skipped only if the
// schedule ends without one. With a zero policy it behaves exactly like
// Schedule.
func ScheduleWithPolicy(jobs []workload.Job, nodes int, policy Policy) (*Result, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if policy.PowerCap <= 0 && len(policy.CapSchedule) == 0 && policy.Placement == PlaceContiguous {
		return Schedule(jobs, nodes)
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("scheduler: non-positive node count %d", nodes)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].SubmitTime < jobs[i-1].SubmitTime {
			return nil, fmt.Errorf("scheduler: jobs not sorted by submit time at %d", i)
		}
	}
	idleFloor := float64(workload.IdleNodePower().Total()) * float64(nodes)
	hasSchedule := len(policy.CapSchedule) > 0
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
	var queue []workload.Job
	var run runHeap
	runningPower := 0.0 // estimated dynamic power of running jobs
	powerOf := map[int]float64{}
	insertQueued := func(j workload.Job) {
		pos := len(queue)
		for i := range queue {
			if queue[i].Class > j.Class ||
				(queue[i].Class == j.Class && queue[i].SubmitTime > j.SubmitTime) {
				pos = i
				break
			}
		}
		queue = append(queue, workload.Job{})
		copy(queue[pos+1:], queue[pos:])
		queue[pos] = j
	}
	const drainAfterSec = 6 * units.SecondsPerHour
	tryStart := func(now int64) {
		headroom := headroomAt(now)
		i := 0
		for i < len(queue) {
			if i > 0 && now-queue[0].SubmitTime > drainAfterSec {
				return
			}
			j := queue[i]
			est := float64(estimate(&j))
			idleShare := float64(workload.IdleNodePower().Total()) * float64(j.Nodes)
			dynamic := est - idleShare
			if dynamic < 0 {
				dynamic = 0
			}
			if runningPower+dynamic > headroom {
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
			idx := len(res.Allocations) - 1
			heap.Push(&run, running{end: end, alloc: idx})
			powerOf[idx] = dynamic
			runningPower += dynamic
			res.NodeBusySec += int64(j.Nodes) * j.Duration
			queue = append(queue[:i], queue[i+1:]...)
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
		for run.Len() > 0 && run[0].end == now {
			r := heap.Pop(&run).(running)
			pool.release(res.Allocations[r.alloc].NodeIDs)
			runningPower -= powerOf[r.alloc]
			delete(powerOf, r.alloc)
		}
		for next < len(jobs) && jobs[next].SubmitTime == now {
			j := jobs[next]
			next++
			idleShare := float64(workload.IdleNodePower().Total()) * float64(j.Nodes)
			dynamic := float64(estimate(&j)) - idleShare
			// Under a constant cap an over-budget job can never start;
			// under a schedule a later step may admit it, so it queues.
			if j.Nodes > nodes || (!hasSchedule && dynamic > headroomAt(now)) {
				res.Skipped = append(res.Skipped, j)
				continue
			}
			insertQueued(j)
		}
		tryStart(now)
		prev = now
	}
	finalizeResult(res)
	return res, nil
}

// finalizeResult sorts allocations and computes the makespan (shared with
// the baseline scheduler).
func finalizeResult(res *Result) {
	sortAllocations(res.Allocations)
	if len(res.Allocations) > 0 {
		first := res.Allocations[0].StartTime
		last := first
		for _, a := range res.Allocations {
			if a.EndTime > last {
				last = a.EndTime
			}
		}
		res.SpanSec = last - first
	}
}
