package scheduler

import (
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
	AtSec int64
	Cap   units.Watts
}

// ErrPolicy marks an invalid scheduling policy; violations wrap it.
var ErrPolicy = errors.New("scheduler: invalid policy")

// Policy adds to the FCFS+backfill baseline (its zero value) the
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
	if !units.Finite(float64(p.PowerCap)) || p.PowerCap < 0 {
		return fmt.Errorf("%w: negative or non-finite power cap %v", ErrPolicy, p.PowerCap)
	}
	if p.Placement < PlaceContiguous || p.Placement > PlaceScatter {
		return fmt.Errorf("%w: placement %d out of range", ErrPolicy, int(p.Placement))
	}
	for i, s := range p.CapSchedule {
		if !units.Finite(float64(s.Cap)) || s.Cap < 0 {
			return fmt.Errorf("%w: negative or non-finite cap %v at schedule step %d", ErrPolicy, s.Cap, i)
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
