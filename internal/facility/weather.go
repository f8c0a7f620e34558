// Package facility models everything outside the compute nodes: East
// Tennessee weather, the central energy plant (cooling towers, trim
// chillers, the medium-temperature-water loop), data-center PUE, and the
// main switchboard (MSB) revenue meters used to validate per-node sensors.
package facility

import "math"

// Conditions is the outdoor weather at a point in time.
type Conditions struct {
	DryBulbC float64
	WetBulbC float64
}

// Weather is a deterministic weather model. Temperatures are a seasonal
// sinusoid plus a diurnal cycle plus smooth pseudo-noise, calibrated to the
// Oak Ridge, TN climate: the wet-bulb temperature exceeds the MTW economizer
// threshold mainly in summer, which yields the paper's ~20 % annual chilled
// water usage.
type Weather struct {
	seed float64
}

// NewWeather returns a weather model; seed perturbs the noise phase.
func NewWeather(seed uint64) *Weather {
	return &Weather{seed: float64(seed%1000) * 0.137}
}

// secondsPerDay and days per year as floats for the cycles.
const (
	secondsPerDay  = 86400.0
	secondsPerYear = 365.0 * secondsPerDay
)

// At returns the conditions at unix time t (seconds). The year phase is
// anchored so that day 0 of the year is January 1.
func (w *Weather) At(t int64) Conditions {
	ft := float64(t)
	yearPhase := 2 * math.Pi * math.Mod(ft, secondsPerYear) / secondsPerYear
	dayPhase := 2 * math.Pi * math.Mod(ft, secondsPerDay) / secondsPerDay
	// Seasonal: 15 °C mean, ±11 °C swing, minimum in mid-January
	// (phase shifted by ~15 days).
	seasonal := 15 - 11*math.Cos(yearPhase-2*math.Pi*15/365)
	// Diurnal: ±4.5 °C, coolest near 5 am.
	diurnal := -4.5 * math.Cos(dayPhase-2*math.Pi*5/24)
	// Weather-front noise: smooth multi-day pseudo-random component.
	noise := 3.2*math.Sin(ft/260000+w.seed) + 1.9*math.Sin(ft/97000+2.1*w.seed) +
		1.1*math.Sin(ft/41000+3.7*w.seed)
	dry := seasonal + diurnal + noise
	// Wet-bulb depression: large in dry winter air, small in humid summer.
	depression := 7.5 - 3.5*math.Sin(yearPhase-2*math.Pi*105/365)
	if depression < 1.5 {
		depression = 1.5
	}
	wet := dry - depression
	if wet > dry {
		wet = dry
	}
	return Conditions{DryBulbC: dry, WetBulbC: wet}
}
