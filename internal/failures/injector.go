package failures

import (
	"math"

	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/units"
)

// InjectorConfig parameterizes the failure model.
type InjectorConfig struct {
	Seed  uint64
	Nodes int
	// RateScale multiplies all base rates; scaled-down simulations use a
	// value > 1 so small systems over short spans still accumulate
	// statistically useful error populations.
	RateScale float64
	// SuperOffenderNVLink designates one node as the permanent-NVLink-
	// malfunction node that accounts for ~97 % of NVLink errors. Negative
	// disables it.
	SuperOffenderNVLink int
	// SuperOffenders, when non-empty, overrides SuperOffenderNVLink with an
	// epidemic of offender nodes: the single offender's fleet-dwarfing
	// NVLink multiplier is split evenly across the listed nodes, preserving
	// the total offender-attributed volume while spreading it spatially
	// (the what-if question "one bad chip vs. a bad batch").
	SuperOffenders []int
	// MissingTempFrac is the fraction of events recorded without thermal
	// context (the paper lost spring/early-summer temperature data).
	MissingTempFrac float64
	// TitanMode flips the thermal covariates to the behaviour the prior
	// generation system showed (paper §6 summary: on air-cooled Titan,
	// high temperature WAS a major driver of double-bit and off-the-bus
	// errors; on water-cooled Summit it is not). Used by the
	// generation-comparison experiment.
	TitanMode bool
}

// DefaultConfig returns a config for a system of the given size.
func DefaultConfig(seed uint64, nodes int) InjectorConfig {
	return InjectorConfig{
		Seed:                seed,
		Nodes:               nodes,
		RateScale:           1,
		SuperOffenderNVLink: nodes / 3, // arbitrary fixed node
		MissingTempFrac:     0.25,
	}
}

// Injector draws XID events. It is deterministic given its config and the
// order of SampleInto calls. Not safe for concurrent use.
type Injector struct {
	cfg InjectorConfig
	rs  *rng.Source
	// propensity[node][type] is the node's rate multiplier for the type.
	propensity [][NumTypes]float64
	// projMult caches per-project multipliers.
	projMult map[string]float64
	projRS   *rng.Source
	// rateConst[slot][type] folds baseRatePerGPUHour × RateScale ×
	// slotWeight (transposed so one SampleInto call walks a contiguous
	// row), and skewTab/capTab cache the per-type thermal parameters: the
	// simulator evaluates every (node, slot, type) tuple each failure
	// sweep, and the switch-based Type methods were a measurable share of
	// that hot loop.
	rateConst [6][NumTypes]float64
	skewTab   [NumTypes]float64
	capTab    [NumTypes]float64
}

// NewInjector builds the per-node defect propensity table.
func NewInjector(cfg InjectorConfig) *Injector {
	if cfg.RateScale <= 0 {
		cfg.RateScale = 1
	}
	root := rng.New(cfg.Seed)
	in := &Injector{
		cfg:        cfg,
		rs:         root.Split("events"),
		propensity: make([][NumTypes]float64, cfg.Nodes),
		projMult:   map[string]float64{},
		projRS:     root.Split("projects"),
	}
	prop := root.Split("propensity")
	for n := 0; n < cfg.Nodes; n++ {
		nodeRS := prop.SplitN("node", n)
		for t := Type(0); t < NumTypes; t++ {
			// Heavy-tailed manufacturing-defect multiplier: most nodes
			// near 1, a few far above (the max-count-per-node column of
			// Table 4). Pareto tail with type-dependent shape.
			m := 1.0
			if nodeRS.Bool(0.04) {
				m = nodeRS.Pareto(2, 1.3)
				if m > 60 {
					m = 60
				}
			} else {
				m = nodeRS.LogNormal(0, 0.4)
			}
			in.propensity[n][t] = m
		}
	}
	if len(cfg.SuperOffenders) > 0 {
		share := 30 * float64(cfg.Nodes) / float64(len(cfg.SuperOffenders))
		for _, n := range cfg.SuperOffenders {
			if n >= 0 && n < cfg.Nodes {
				in.propensity[n][NVLinkError] = share
			}
		}
	} else if cfg.SuperOffenderNVLink >= 0 && cfg.SuperOffenderNVLink < cfg.Nodes {
		// ~97 % of NVLink errors come from one chip: give it a multiplier
		// that dwarfs the rest of the fleet combined.
		in.propensity[cfg.SuperOffenderNVLink][NVLinkError] = 30 * float64(cfg.Nodes)
	}
	for t := Type(0); t < NumTypes; t++ {
		base := t.baseRatePerGPUHour() * cfg.RateScale
		w := t.slotWeights()
		for s := range w {
			in.rateConst[s][t] = base * w[s]
		}
		in.skewTab[t] = t.thermalSkew()
		in.capTab[t] = t.tempCapC()
	}
	return in
}

// ProjectMultiplier returns (memoizing) the project's failure-rate
// multiplier; distinct workloads stress GPUs very differently (Figure 14).
func (in *Injector) ProjectMultiplier(project string) float64 {
	if project == "" {
		return 1
	}
	if m, ok := in.projMult[project]; ok {
		return m
	}
	m := in.projRS.LogNormal(0, 0.9)
	if m > 12 {
		m = 12
	}
	in.projMult[project] = m
	return m
}

// Context is the job/thermal context of a GPU during a sampling window.
type Context struct {
	JobID   int64
	Project string
	// Active reports whether the GPU is under an allocation. Idle GPUs
	// fail at a small fraction of the loaded rate.
	Active bool
	// TempC and TempZ are the GPU's 10-second mean core temperature and
	// its z-score across the job's GPUs.
	TempC float64
	TempZ float64
}

// SampleInto draws the XID events for one GPU over a window of windowSec
// seconds and appends them to dst, returning the extended slice. Cascaded
// secondary events (page retirements after a double-bit error, driver
// exceptions after microcontroller warnings) are emitted together with
// their primaries. dst lets a caller reuse one event buffer across windows
// (the simulator's failure sweep calls it once per GPU per check; a fresh
// slice per call would dominate steady-state allocations); the variates
// drawn do not depend on it.
func (in *Injector) SampleInto(dst []Event, t int64, windowSec float64,
	node topology.NodeID, slot topology.GPUSlot, ctx Context) []Event {
	if windowSec <= 0 || int(node) >= in.cfg.Nodes {
		return dst
	}
	out := dst
	hours := windowSec / units.SecondsPerHour
	activity := 0.05
	projMult := 1.0
	if ctx.Active {
		activity = 1
		projMult = in.ProjectMultiplier(ctx.Project)
	}
	common := hours * activity * projMult
	slotRate := &in.rateConst[slot]
	prop := &in.propensity[node]
	for typ := Type(0); typ < NumTypes; typ++ {
		rate := slotRate[typ] * common * prop[typ]
		if rate <= 0 {
			continue
		}
		rate *= in.thermalFactor(typ, ctx)
		n := in.poissonCapped(rate)
		for i := 0; i < n; i++ {
			out = append(out, in.record(t, node, slot, typ, ctx))
			out = in.cascadeInto(out, t, node, slot, typ, ctx)
		}
	}
	return out
}

// ExpectedEventsPerSweep returns the a-priori expectation of primary
// events yielded by one failure sweep of windowSec seconds over the whole
// fleet, assuming a fraction util of nodes runs jobs (activity 1) and the
// rest idles (activity 0.05), with project multipliers and thermal factors
// taken as 1 and per-tuple rates capped as poissonCapped caps them. The
// simulator uses it to pre-size its event log, so small-factor accuracy is
// all that is required; cascade secondaries are left to the caller's pad.
func (in *Injector) ExpectedEventsPerSweep(windowSec, util float64) float64 {
	hours := windowSec / units.SecondsPerHour
	common := hours * (util + (1-util)*0.05)
	var sum float64
	for node := range in.propensity {
		prop := &in.propensity[node]
		for slot := range in.rateConst {
			for typ := Type(0); typ < NumTypes; typ++ {
				rate := in.rateConst[slot][typ] * common * prop[typ]
				if rate > 50 {
					rate = 50
				}
				sum += rate
			}
		}
	}
	return sum
}

// poissonCapped draws a Poisson count but caps bursts so a super-offender
// cannot swamp memory in one window.
func (in *Injector) poissonCapped(rate float64) int {
	if rate > 50 {
		rate = 50
	}
	n := in.rs.Poisson(rate)
	if n > 200 {
		n = 200
	}
	return n
}

// thermalFactor applies the type's z-score skew and absolute-temperature
// cap to the rate. In TitanMode the skew is inverted for the hardware
// types (hot GPUs fail more, the Titan-era behaviour) and the Summit
// absolute-temperature caps are lifted.
func (in *Injector) thermalFactor(typ Type, ctx Context) float64 {
	if math.IsNaN(ctx.TempC) {
		return 1
	}
	f := 1.0
	skew := in.skewTab[typ]
	if in.cfg.TitanMode && typ.Hardware() {
		skew = 0.6 // hot-biased: the air-cooled generation's signature
	}
	// TempZ == 0 (every idle GPU) would multiply by exp(0) == 1 exactly;
	// skipping the call is bit-identical and shaves a math.Exp from the
	// majority of hot-loop evaluations.
	if skew != 0 && ctx.TempZ != 0 && !math.IsNaN(ctx.TempZ) {
		f *= math.Exp(skew * ctx.TempZ)
		if f > 8 {
			f = 8
		}
	}
	if !in.cfg.TitanMode {
		if capC := in.capTab[typ]; ctx.TempC > capC {
			f *= math.Exp(-(ctx.TempC - capC) / 2)
		}
	}
	return f
}

// record materializes one event, modelling the missing-telemetry fraction.
func (in *Injector) record(t int64, node topology.NodeID, slot topology.GPUSlot,
	typ Type, ctx Context) Event {
	e := Event{
		Time: t, Node: node, Slot: slot, Type: typ,
		JobID: ctx.JobID,
		TempC: ctx.TempC, TempZ: ctx.TempZ,
	}
	if in.rs.Bool(in.cfg.MissingTempFrac) {
		e.TempC = math.NaN()
		e.TempZ = math.NaN()
	}
	return e
}

// cascadeInto appends the secondary events co-occurring with the primary;
// these correlations are what Figure 13 recovers. Written append-style
// (no closures, no fresh slice) so the hot failure sweep stays
// allocation-free when no event fires.
func (in *Injector) cascadeInto(out []Event, t int64, node topology.NodeID,
	slot topology.GPUSlot, typ Type, ctx Context) []Event {
	switch typ {
	case DoubleBitError:
		// ECC double-bit errors trigger page retirements and cleanups.
		out = in.emit(out, PageRetirementEvent, 0.85, t, node, slot, ctx)
		out = in.emit(out, PreemptiveCleanup, 0.55, t, node, slot, ctx)
		out = in.emit(out, PageRetirementFailure, 0.12, t, node, slot, ctx)
	case MicrocontrollerWarning:
		// The paper's strongest co-occurrence: warnings precede driver
		// error-handling exceptions.
		out = in.emit(out, DriverErrorHandling, 0.6, t, node, slot, ctx)
		out = in.emit(out, MicrocontrollerHalt, 0.15, t, node, slot, ctx)
	case FallenOffBus:
		out = in.emit(out, StoppedProcessing, 0.5, t, node, slot, ctx)
	case GraphicsEngineException:
		out = in.emit(out, StoppedProcessing, 0.1, t, node, slot, ctx)
	}
	return out
}

// emit appends one secondary event with probability p.
func (in *Injector) emit(out []Event, sec Type, p float64, t int64,
	node topology.NodeID, slot topology.GPUSlot, ctx Context) []Event {
	if in.rs.Bool(p) {
		out = append(out, in.record(t, node, slot, sec, ctx))
	}
	return out
}
