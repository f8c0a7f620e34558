package facility

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/units"
)

// CEP simulates Summit's central energy plant: the medium-temperature-water
// (MTW) secondary loop fed by evaporative cooling towers (the economizer)
// and trimmed by chillers when the wet bulb is too high. It reproduces the
// dynamics the paper measures in Figures 11–12: a ~1 minute staging lag, a
// slower de-staging response on falling edges, transient supply/return
// temperature excursions, and PUE that is inversely proportional to load.
type CEP struct {
	weather *Weather

	// Set points and physical parameters.
	SupplySetpointC float64 // MTW supply target (70 °F ≈ 21.1 °C)
	LoopFlowGPM     float64 // secondary loop flow
	LoopMassKg      float64 // thermal mass of the loop water
	TowerApproachC  float64 // tower water approaches wet bulb this closely
	HXApproachC     float64 // tower->MTW heat exchanger approach

	// Staging dynamics (paper: rise within ~1 min, slower attenuation).
	TauUpSec   float64
	TauDownSec float64

	// Efficiency parameters.
	TowerKWPerTon   float64 // fans+pumps per ton on the economizer
	ChillerKWPerTon float64 // compressor power per ton on the trim loop
	FixedOverheadW  float64 // pumps, lights, UPS losses, controls

	// Equipment staging control. Another unit stages on when its class's
	// delivered tons exceed staged capacity × StageUpFrac; the top unit
	// stages off only when the remaining units could carry the load at
	// StageDownFrac of their capacity. StageDownFrac < StageUpFrac is the
	// deadband that keeps a load sitting exactly on a unit boundary from
	// staging in and out every window (the oscillation a setpoint sweep
	// would otherwise read as spurious staging churn).
	TowerUnitTons   float64
	ChillerUnitTons float64
	StageUpFrac     float64
	StageDownFrac   float64

	// State.
	tons           float64 // cooling currently delivered (all sources)
	supplyC        float64 // actual MTW supply temperature
	returnC        float64 // actual MTW return temperature
	towerTons      float64
	chillerTons    float64
	itLoadW        float64
	activeTowers   int
	activeChillers int
}

// NewCEP returns a plant with Summit-calibrated defaults.
func NewCEP(w *Weather) *CEP {
	c := &CEP{
		weather:         w,
		SupplySetpointC: float64(units.MTWSupplyNominalF.C()),
		LoopFlowGPM:     5000,
		LoopMassKg:      60000,
		TowerApproachC:  3.5,
		HXApproachC:     1.0,
		TauUpSec:        60,
		TauDownSec:      280,
		TowerKWPerTon:   0.14,
		ChillerKWPerTon: 0.75,
		FixedOverheadW:  330e3,
		TowerUnitTons:   towerUnitTons,
		ChillerUnitTons: chillerUnitTons,
		StageUpFrac:     1.0,
		StageDownFrac:   0.92,
	}
	c.supplyC = c.SupplySetpointC
	c.returnC = c.SupplySetpointC
	return c
}

// Tuning overrides a subset of the plant's operating parameters — the
// what-if control plane's facility knob surface. Zero fields keep the
// Summit-calibrated defaults.
type Tuning struct {
	// SupplySetpointC retargets the MTW supply temperature (°C).
	SupplySetpointC float64 `json:"supply_setpoint_c,omitempty"`
	// TowerKWPerTon / ChillerKWPerTon override the plant efficiencies.
	TowerKWPerTon   float64 `json:"tower_kw_per_ton,omitempty"`
	ChillerKWPerTon float64 `json:"chiller_kw_per_ton,omitempty"`
	// TowerUnitTons / ChillerUnitTons resize the per-unit staging capacity.
	TowerUnitTons   float64 `json:"tower_unit_tons,omitempty"`
	ChillerUnitTons float64 `json:"chiller_unit_tons,omitempty"`
	// StageUpFrac / StageDownFrac move the staging thresholds; the pair
	// must keep StageDownFrac < StageUpFrac (the hysteresis deadband).
	StageUpFrac   float64 `json:"stage_up_frac,omitempty"`
	StageDownFrac float64 `json:"stage_down_frac,omitempty"`
}

// ErrTuning marks an out-of-bounds plant tuning; specific violations wrap it.
var ErrTuning = errors.New("facility: invalid plant tuning")

// Supply-setpoint sanity band for sweeps, generously wider than the
// published MTW operating band but still physically meaningful.
const (
	minSetpointC = 12.0
	maxSetpointC = 32.0
)

// Validate checks the tuning's bounds. Zero fields (defaults) always pass.
func (t Tuning) Validate() error {
	if !units.Finite(t.SupplySetpointC) {
		return fmt.Errorf("%w: non-finite supply setpoint %g °C", ErrTuning, t.SupplySetpointC)
	}
	if t.SupplySetpointC < 0 {
		return fmt.Errorf("%w: negative supply setpoint %g °C", ErrTuning, t.SupplySetpointC)
	}
	if t.SupplySetpointC != 0 && (t.SupplySetpointC < minSetpointC || t.SupplySetpointC > maxSetpointC) {
		return fmt.Errorf("%w: supply setpoint %g °C outside [%g, %g]",
			ErrTuning, t.SupplySetpointC, minSetpointC, maxSetpointC)
	}
	for _, f := range []struct {
		name string
		v    float64
		max  float64
	}{
		{"tower kW/ton", t.TowerKWPerTon, 5},
		{"chiller kW/ton", t.ChillerKWPerTon, 5},
		{"tower unit tons", t.TowerUnitTons, 10_000},
		{"chiller unit tons", t.ChillerUnitTons, 10_000},
		{"stage-up fraction", t.StageUpFrac, 2},
		{"stage-down fraction", t.StageDownFrac, 2},
	} {
		if !units.Finite(f.v) {
			return fmt.Errorf("%w: non-finite %s %g", ErrTuning, f.name, f.v)
		}
		if f.v < 0 {
			return fmt.Errorf("%w: negative %s %g", ErrTuning, f.name, f.v)
		}
		if f.v > f.max {
			return fmt.Errorf("%w: %s %g above %g", ErrTuning, f.name, f.v, f.max)
		}
	}
	up, down := t.StageUpFrac, t.StageDownFrac
	if up == 0 {
		up = 1.0
	}
	if down == 0 {
		down = 0.92
	}
	if down >= up {
		return fmt.Errorf("%w: inverted staging thresholds (stage-down %g >= stage-up %g)",
			ErrTuning, down, up)
	}
	return nil
}

// Tune applies the tuning to the plant and re-settles the loop at the new
// set point. Call it before the first Step (the node fleet equilibrates
// against SupplyC at construction).
func (c *CEP) Tune(t Tuning) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if t.SupplySetpointC != 0 {
		c.SupplySetpointC = t.SupplySetpointC
		c.supplyC = t.SupplySetpointC
		c.returnC = t.SupplySetpointC
	}
	if t.TowerKWPerTon != 0 {
		c.TowerKWPerTon = t.TowerKWPerTon
	}
	if t.ChillerKWPerTon != 0 {
		c.ChillerKWPerTon = t.ChillerKWPerTon
	}
	if t.TowerUnitTons != 0 {
		c.TowerUnitTons = t.TowerUnitTons
	}
	if t.ChillerUnitTons != 0 {
		c.ChillerUnitTons = t.ChillerUnitTons
	}
	if t.StageUpFrac != 0 {
		c.StageUpFrac = t.StageUpFrac
	}
	if t.StageDownFrac != 0 {
		c.StageDownFrac = t.StageDownFrac
	}
	return nil
}

// towerCapacityFrac returns the fraction of the load the economizer can
// carry given the wet-bulb temperature: 1 when the towers alone can reach
// the supply set point, fading to 0 as the wet bulb climbs past it.
func (c *CEP) towerCapacityFrac(wetBulbC float64) float64 {
	achievable := wetBulbC + c.TowerApproachC + c.HXApproachC
	headroom := c.SupplySetpointC - achievable
	switch {
	case headroom >= 0:
		return 1
	case headroom <= -6:
		return 0
	default:
		return 1 + headroom/6
	}
}

// Step advances the plant by dt seconds with the given IT heat load (watts
// of heat to remove) at unix time t.
func (c *CEP) Step(t int64, dt float64, itLoad units.Watts) {
	if dt <= 0 {
		return
	}
	c.itLoadW = float64(itLoad)
	cond := c.weather.At(t)
	// Return temperature follows the load through the loop flow.
	rise := float64(units.WaterHeatPickup(itLoad, units.GPM(c.LoopFlowGPM)))
	targetReturn := c.supplyC + rise
	c.returnC = relax(c.returnC, targetReturn, dt, 45)
	// The plant stages cooling toward the measured return-side load.
	targetTons := float64(itLoad.Tons())
	tau := c.TauUpSec
	if targetTons < c.tons {
		tau = c.TauDownSec
	}
	c.tons = relax(c.tons, targetTons, dt, tau)
	// Split between economizer and chillers by wet bulb.
	frac := c.towerCapacityFrac(cond.WetBulbC)
	c.towerTons = c.tons * frac
	c.chillerTons = c.tons - c.towerTons
	// Supply temperature drifts with the heat imbalance across the loop's
	// thermal mass and is pulled back to set point by the plant control.
	imbalanceW := float64(itLoad) - c.tons*units.WattsPerTon
	dT := imbalanceW * dt / (c.LoopMassKg * units.WaterHeatCapacityJPerKgK)
	c.supplyC += dT
	c.supplyC = relax(c.supplyC, c.SupplySetpointC, dt, 240)
	// Clamp to the facility's published operating band, widened to include
	// the (possibly retuned) set point so a sweep outside the nominal band
	// still relaxes to its target.
	lo := math.Min(float64(units.MTWSupplyMinF.C()), c.SupplySetpointC)
	hi := math.Max(float64(units.MTWSupplyMaxF.C()), c.SupplySetpointC)
	c.supplyC = math.Max(lo-1, math.Min(hi+3, c.supplyC))
	// Re-evaluate equipment staging against the delivered load.
	c.activeTowers = stage(c.activeTowers, c.towerTons, c.TowerUnitTons,
		units.CoolingTowers, c.StageUpFrac, c.StageDownFrac)
	c.activeChillers = stage(c.activeChillers, c.chillerTons, c.ChillerUnitTons,
		units.Chillers, c.StageUpFrac, c.StageDownFrac)
}

// stage returns the staged unit count for a load of tons given cur staged
// units of unit tons each. Units stage on while the load exceeds the staged
// capacity scaled by upFrac, and the top unit stages off only once the
// remaining units could carry the load at downFrac of capacity — the
// hysteresis deadband that keeps exactly-threshold loads from oscillating.
func stage(cur int, tons, unit float64, max int, upFrac, downFrac float64) int {
	if tons <= 1 {
		return 0
	}
	if cur == 0 {
		cur = 1
	}
	for cur < max && tons > float64(cur)*unit*upFrac {
		cur++
	}
	for cur > 1 && tons < float64(cur-1)*unit*downFrac {
		cur--
	}
	return cur
}

func relax(cur, target, dt, tau float64) float64 {
	if tau <= 0 {
		return target
	}
	return target + (cur-target)*math.Exp(-dt/tau)
}

// SupplyC returns the MTW supply temperature.
func (c *CEP) SupplyC() units.Celsius { return units.Celsius(c.supplyC) }

// ReturnC returns the MTW return temperature.
func (c *CEP) ReturnC() units.Celsius { return units.Celsius(c.returnC) }

// TowerTons returns the economizer cooling currently delivered.
func (c *CEP) TowerTons() units.TonsRefrigeration {
	return units.TonsRefrigeration(c.towerTons)
}

// ChillerTons returns the trim chiller cooling currently delivered.
func (c *CEP) ChillerTons() units.TonsRefrigeration {
	return units.TonsRefrigeration(c.chillerTons)
}

// CoolingPower returns the electrical power the plant draws right now.
func (c *CEP) CoolingPower() units.Watts {
	return units.Watts(c.towerTons*c.TowerKWPerTon*units.WattsPerKW +
		c.chillerTons*c.ChillerKWPerTon*units.WattsPerKW + c.FixedOverheadW)
}

// PUE returns the instantaneous power usage effectiveness:
// (IT + facility) / IT. Zero IT load returns NaN.
func (c *CEP) PUE() float64 {
	if c.itLoadW <= 0 {
		return math.NaN()
	}
	return (c.itLoadW + float64(c.CoolingPower())) / c.itLoadW
}

// Per-unit capacities for equipment staging: the CEP has 8 cooling towers
// and 5 chillers (paper Table 1); a 13 MW peak is ~3,700 tons, so each
// tower stages ~550 tons and each chiller ~800 tons.
const (
	towerUnitTons   = 550.0
	chillerUnitTons = 800.0
)

// ActiveTowers returns how many of the 8 cooling towers are staged on to
// carry the current economizer load. The count is stateful: it moves with
// the hysteresis deadband in Step, not a pure function of the instant load.
func (c *CEP) ActiveTowers() int { return c.activeTowers }

// ActiveChillers returns how many of the 5 trim chillers are staged on.
func (c *CEP) ActiveChillers() int { return c.activeChillers }
