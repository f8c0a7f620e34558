// Package whatif is the twin's what-if control plane: it sweeps named,
// validated operating-point scenarios (plant setpoints, staging
// thresholds, power-cap schedules, placement policies) over deterministic
// batch evaluations of the simulator, scores each run with the existing
// analyses, and searches the knob space with grid, coordinate-descent and
// cross-entropy strategies — the ExaDigiT-style "steer the plant in
// simulation" loop the paper's successors build on the same telemetry.
//
// Every evaluation is a reproducible artifact: a scenario's canonical
// hash plus the batch's base seed derive the run's seed, so a sweep log
// is bit-identical for any worker count.
package whatif

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// Param names one tunable knob of the scenario surface. All knob values
// are float64 so the search strategies treat the space uniformly;
// ParamPlacement takes the enum index (0 contiguous, 1 packed, 2 scatter).
type Param string

const (
	ParamSupplySetpointC Param = "supply_setpoint_c"
	ParamTowerKWPerTon   Param = "tower_kw_per_ton"
	ParamChillerKWPerTon Param = "chiller_kw_per_ton"
	ParamStageUpFrac     Param = "stage_up_frac"
	ParamStageDownFrac   Param = "stage_down_frac"
	ParamPowerCapMW      Param = "power_cap_mw"
	ParamPlacement       Param = "placement"
)

// ErrScenario marks an invalid scenario; violations wrap it.
var ErrScenario = errors.New("whatif: invalid scenario")

// Scenario is one named operating point: a sparse knob assignment over
// the base configuration, optionally with a power-cap step schedule.
// The JSON form is the declarative scenario-config schema (see
// EXPERIMENTS.md).
type Scenario struct {
	Name        string            `json:"name,omitempty"`
	Params      map[Param]float64 `json:"params,omitempty"`
	CapSchedule []sim.CapStep     `json:"cap_schedule,omitempty"`
}

// paramValue is one knob assignment in canonical (sorted) order.
type paramValue struct {
	Param Param
	Value float64
}

// sorted returns the scenario's knob assignments sorted by parameter
// name — the canonical order every deterministic consumer iterates in.
func (s Scenario) sorted() []paramValue {
	out := make([]paramValue, 0, len(s.Params))
	for p, v := range s.Params {
		out = append(out, paramValue{p, v})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Param < out[b].Param })
	return out
}

// placementNames maps the ParamPlacement enum index to the sim.Config
// placement string.
var placementNames = [...]string{"contiguous", "packed", "scatter"}

// Apply overlays the scenario's knobs on a base configuration and
// validates the result. The base is not modified.
func (s Scenario) Apply(base sim.Config) (sim.Config, error) {
	cfg := base
	for _, pv := range s.sorted() {
		switch pv.Param {
		case ParamSupplySetpointC:
			cfg.Plant.SupplySetpointC = pv.Value
		case ParamTowerKWPerTon:
			cfg.Plant.TowerKWPerTon = pv.Value
		case ParamChillerKWPerTon:
			cfg.Plant.ChillerKWPerTon = pv.Value
		case ParamStageUpFrac:
			cfg.Plant.StageUpFrac = pv.Value
		case ParamStageDownFrac:
			cfg.Plant.StageDownFrac = pv.Value
		case ParamPowerCapMW:
			if pv.Value < 0 {
				return cfg, fmt.Errorf("%w: negative power cap %g MW", ErrScenario, pv.Value)
			}
			cfg.PowerCap = units.Watts(pv.Value * units.WattsPerMW)
		case ParamPlacement:
			idx := int(pv.Value)
			if pv.Value-float64(idx) > 0 || float64(idx)-pv.Value > 0 || idx < 0 || idx >= len(placementNames) {
				return cfg, fmt.Errorf("%w: placement index %g outside {0, 1, 2}", ErrScenario, pv.Value)
			}
			cfg.Placement = placementNames[idx]
		default:
			return cfg, fmt.Errorf("%w: unknown parameter %q", ErrScenario, pv.Param)
		}
	}
	if len(s.CapSchedule) > 0 {
		cfg.PowerCapSchedule = s.CapSchedule
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("%w: %w", ErrScenario, err)
	}
	return cfg, nil
}

// Hash returns the scenario's canonical content hash: FNV-1a over the
// sorted knob assignments and the cap schedule. The name is cosmetic and
// excluded, so two scenarios with identical knobs share an identity —
// and therefore a derived seed — regardless of labeling.
func (s Scenario) Hash() uint64 {
	h := rng.NewContentHash()
	for _, pv := range s.sorted() {
		h.Float(string(pv.Param), pv.Value)
	}
	for _, st := range s.CapSchedule {
		h.Float("cap@"+strconv.FormatInt(st.AfterSec, 10), float64(st.CapW))
	}
	return h.Sum64()
}

// Seed derives the run seed for a scenario from the batch's base seed and
// the scenario hash (splitmix64 finalizer over the combination), giving
// every scenario a reproducible identity independent of batch order.
func Seed(base uint64, s Scenario) uint64 {
	return rng.DeriveSeed(base, s.Hash())
}

// Label returns the scenario's display name, synthesizing a stable
// "param=value" form when unnamed.
func (s Scenario) Label() string {
	if s.Name != "" {
		return s.Name
	}
	if len(s.Params) == 0 && len(s.CapSchedule) == 0 {
		return "nominal"
	}
	out := ""
	for _, pv := range s.sorted() {
		if out != "" {
			out += " "
		}
		out += string(pv.Param) + "=" + strconv.FormatFloat(pv.Value, 'g', -1, 64)
	}
	if len(s.CapSchedule) > 0 {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("cap-schedule[%d]", len(s.CapSchedule))
	}
	return out
}
