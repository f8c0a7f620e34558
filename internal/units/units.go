// Package units provides physical units, conversions, and the Summit system
// constants used throughout the reproduction.
//
// All power values are carried as Watts (float64), energy as Joules,
// temperature as degrees Celsius unless a type says otherwise. The small
// wrapper types exist to make API signatures self-documenting and to host
// conversion methods; they are plain float64s with zero runtime cost.
package units

import (
	"fmt"
	"math"
)

// Watts is electrical or thermal power in watts.
type Watts float64

// Joules is energy.
type Joules float64

// Celsius is temperature in degrees Celsius.
type Celsius float64

// Fahrenheit is temperature in degrees Fahrenheit. Facility-side set points
// in the paper are quoted in °F (e.g. the 70°F MTW supply).
type Fahrenheit float64

// TonsRefrigeration is cooling capacity; 1 ton = 3516.8528 W of heat removal.
type TonsRefrigeration float64

// GPM is a volumetric water flow rate in US gallons per minute.
type GPM float64

// Conversion factors. These named constants are the only sanctioned spelling
// of unit scale factors: the reprolint unitsafety analyzer rejects raw
// 1000/1e6/3600-style literals everywhere outside this package.
const (
	// WattsPerTon converts tons of refrigeration to watts of heat removal.
	WattsPerTon = 3516.8528420667
	// BTUPerHourPerWatt converts watts to BTU/hr.
	BTUPerHourPerWatt = 3.412141633
	// JoulesPerKWh converts kilowatt-hours to joules.
	JoulesPerKWh = 3.6e6
	// JoulesPerMWh converts megawatt-hours to joules.
	JoulesPerMWh = 3.6e9
	// JoulesPerGJ converts gigajoules to joules.
	JoulesPerGJ = 1e9
	// WattsPerKW converts kilowatts to watts.
	WattsPerKW = 1e3
	// WattsPerMW converts megawatts to watts.
	WattsPerMW = 1e6
	// SecondsPerHour converts hours to seconds. Untyped so it composes with
	// both integer timestamps and float durations.
	SecondsPerHour = 3600
	// WaterHeatCapacityJPerKgK is the specific heat of water (J/(kg·K)).
	WaterHeatCapacityJPerKgK = 4186.0
	// WaterKgPerGallon is the mass of one US gallon of water in kg.
	WaterKgPerGallon = 3.78541
)

// Finite reports whether v is neither NaN nor ±Inf. Knob validation calls
// it first: ordered comparisons against bounds are all false for NaN.
func Finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// KW returns the power in kilowatts.
func (w Watts) KW() float64 { return float64(w) / 1e3 }

// MW returns the power in megawatts.
func (w Watts) MW() float64 { return float64(w) / 1e6 }

// Tons returns the equivalent cooling duty in tons of refrigeration.
func (w Watts) Tons() TonsRefrigeration {
	return TonsRefrigeration(float64(w) / WattsPerTon)
}

// KWh returns the energy in kilowatt-hours.
func (j Joules) KWh() float64 { return float64(j) / JoulesPerKWh }

// MWh returns the energy in megawatt-hours.
func (j Joules) MWh() float64 { return float64(j) / (1e3 * JoulesPerKWh) }

// C converts Fahrenheit to Celsius.
func (f Fahrenheit) C() Celsius { return Celsius((float64(f) - 32) * 5 / 9) }

// String implements fmt.Stringer with an adaptive scale (W, kW, MW).
func (w Watts) String() string {
	switch {
	case w >= 1e6 || w <= -1e6:
		return fmt.Sprintf("%.3fMW", w.MW())
	case w >= 1e3 || w <= -1e3:
		return fmt.Sprintf("%.2fkW", w.KW())
	default:
		return fmt.Sprintf("%.1fW", float64(w))
	}
}

// String implements fmt.Stringer with an adaptive scale (J, kWh, MWh).
func (j Joules) String() string {
	switch {
	case j >= 1e3*JoulesPerKWh:
		return fmt.Sprintf("%.3fMWh", j.MWh())
	case j >= JoulesPerKWh:
		return fmt.Sprintf("%.2fkWh", j.KWh())
	default:
		return fmt.Sprintf("%.1fJ", float64(j))
	}
}

func (c Celsius) String() string    { return fmt.Sprintf("%.1f°C", float64(c)) }
func (f Fahrenheit) String() string { return fmt.Sprintf("%.1f°F", float64(f)) }

// WaterHeatPickup returns the temperature rise of water flowing at the given
// rate while absorbing the given heat load. It is the steady-state
// ΔT = Q / (ṁ·c_p) relation used by the cold-plate and loop models.
func WaterHeatPickup(load Watts, flow GPM) Celsius {
	if flow <= 0 {
		return 0
	}
	massFlowKgPerSec := float64(flow) * WaterKgPerGallon / 60.0
	return Celsius(float64(load) / (massFlowKgPerSec * WaterHeatCapacityJPerKgK))
}
