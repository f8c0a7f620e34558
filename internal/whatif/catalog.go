package whatif

import (
	"fmt"
	"sort"

	"repro/internal/units"
)

// Study is a catalog entry: a ready-to-run what-if question with its base
// scenario and search axes. The base is referenced by internal/scenario
// catalog name rather than an inlined sim.Config — the scenario catalog is
// the one place run shapes are defined, and whatif sits below it in the
// dependency order, so callers (cmd/optimize) resolve the name to a config
// via scenario.Compile before calling Evaluate.
type Study struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Scenario names the internal/scenario catalog entry supplying the
	// base configuration.
	Scenario string `json:"scenario"`
	Axes     []Axis `json:"axes"`
}

// midJulyOffsetSec places a run in a mid-July afternoon heat wave (the
// wet-bulb peak of the weather model's year). The scenario catalog's
// "summer-heatwave" weather regime is defined as exactly this offset.
const midJulyOffsetSec = (196*24 + 12) * units.SecondsPerHour

// MidJulyOffsetSec exposes the heat-wave placement for the scenario
// catalog, which must reproduce the historical study bases bit-for-bit.
const MidJulyOffsetSec = midJulyOffsetSec

// Catalog returns the named studies, sorted by name. Each base scenario is
// a scaled floor sized so a full grid completes in seconds.
func Catalog() []Study {
	studies := []Study{
		{
			Name: "heatwave-setpoint",
			Description: "Summer heat-wave afternoon: sweep the MTW supply setpoint " +
				"against the staging deadband. Raising the setpoint unloads the trim " +
				"chillers (energy down) but runs the GPUs hotter (violations up); " +
				"the sweep maps the frontier and picks the operating point.",
			Scenario: "heatwave-summer",
			Axes: []Axis{
				{Param: ParamSupplySetpointC, Values: []float64{17.5, 18.5, 19.5, 20.5, 21.1, 22.0, 23.0, 24.0}},
				{Param: ParamStageDownFrac, Values: []float64{0.80, 0.86, 0.92, 0.98}},
				{Param: ParamStageUpFrac, Values: []float64{1.0, 1.08}},
			},
		},
		{
			Name: "winter-economizer",
			Description: "Winter economizer tuning: with the chillers idle, trade " +
				"tower efficiency against the supply setpoint for the lowest PUE.",
			Scenario: "winter-economizer",
			Axes: []Axis{
				{Param: ParamSupplySetpointC, Values: []float64{18.0, 19.5, 21.1, 22.5}},
				{Param: ParamTowerKWPerTon, Values: []float64{0.10, 0.14, 0.18}},
			},
		},
		{
			Name: "cap-placement",
			Description: "Power-capped day: sweep the admission cap against the " +
				"placement policy, trading skipped work against peak power and heat.",
			Scenario: "summer-capday",
			Axes: []Axis{
				{Param: ParamPowerCapMW, Values: []float64{0.10, 0.14, 0.18, 0.25}},
				{Param: ParamPlacement, Values: []float64{0, 1, 2}},
			},
		},
		{
			Name: "power-cap",
			Description: "Paper §8's power-aware scheduling what-if: the heat-wave " +
				"day under admission caps at about 0.9, 0.8 and 0.7 of the uncapped " +
				"(nominal) peak, trading peak and p99 power against waits and skips.",
			Scenario: "summer-capday",
			Axes: []Axis{
				// The nominal arm peaks at 0.1455 MW.
				{Param: ParamPowerCapMW, Values: []float64{0.102, 0.116, 0.131}},
			},
		},
	}
	sort.Slice(studies, func(a, b int) bool { return studies[a].Name < studies[b].Name })
	return studies
}

// StudyByName looks up a catalog study.
func StudyByName(name string) (Study, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	names := ""
	for i, s := range Catalog() {
		if i > 0 {
			names += ", "
		}
		names += s.Name
	}
	return Study{}, fmt.Errorf("%w: unknown study %q (have %s)", ErrScenario, name, names)
}
