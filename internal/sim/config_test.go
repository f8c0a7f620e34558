package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/facility"
	"repro/internal/scheduler"
	"repro/internal/units"
)

func TestConfigValidateKnobs(t *testing.T) {
	base := func() Config {
		return Config{Nodes: 64, DurationSec: 600, Jobs: 5}
	}
	cases := []struct {
		name   string
		mut    func(*Config)
		ok     bool
		target error
	}{
		{"baseline", func(c *Config) {}, true, nil},
		{"negative cap", func(c *Config) { c.PowerCap = -1 }, false, ErrConfig},
		{"schedule step before the start", func(c *Config) {
			c.PowerCapSchedule = []scheduler.CapStep{{AtSec: c.StartTime - 10, Cap: 1e6}}
		}, false, ErrConfig},
		{"negative schedule cap", func(c *Config) {
			c.PowerCapSchedule = []scheduler.CapStep{{AtSec: c.StartTime, Cap: -1}}
		}, false, ErrConfig},
		{"non-monotone schedule", func(c *Config) {
			c.PowerCapSchedule = []scheduler.CapStep{
				{AtSec: c.StartTime + 100, Cap: 1e6}, {AtSec: c.StartTime + 100, Cap: 2e6},
			}
		}, false, ErrConfig},
		{"valid schedule", func(c *Config) {
			c.PowerCapSchedule = []scheduler.CapStep{
				{AtSec: c.StartTime, Cap: 1e6}, {AtSec: c.StartTime + 3600, Cap: 0},
			}
		}, true, nil},
		{"bad placement", func(c *Config) { c.Placement = "ring" }, false, ErrConfig},
		{"scatter placement", func(c *Config) { c.Placement = "scatter" }, true, nil},
		{"negative setpoint", func(c *Config) {
			c.Plant = facility.Tuning{SupplySetpointC: -4}
		}, false, ErrConfig},
		{"inverted staging", func(c *Config) {
			c.Plant = facility.Tuning{StageUpFrac: 0.8, StageDownFrac: 0.9}
		}, false, ErrConfig},
		{"plant tuning wraps facility error", func(c *Config) {
			c.Plant = facility.Tuning{SupplySetpointC: 50}
		}, false, facility.ErrTuning},
		// Non-finite knobs: every ordered comparison is false for NaN, so
		// each needs its own rejection.
		{"NaN setpoint", func(c *Config) { c.Plant.SupplySetpointC = math.NaN() }, false, facility.ErrTuning},
		{"NaN staging", func(c *Config) { c.Plant.StageUpFrac = math.NaN() }, false, ErrConfig},
		{"NaN cap", func(c *Config) { c.PowerCap = units.Watts(math.NaN()) }, false, ErrConfig},
		{"+Inf cap", func(c *Config) { c.PowerCap = units.Watts(math.Inf(1)) }, false, ErrConfig},
		{"NaN schedule cap", func(c *Config) {
			c.PowerCapSchedule = []scheduler.CapStep{{AtSec: c.StartTime, Cap: units.Watts(math.NaN())}}
		}, false, ErrConfig},
		{"+Inf schedule cap", func(c *Config) {
			c.PowerCapSchedule = []scheduler.CapStep{{AtSec: c.StartTime, Cap: units.Watts(math.Inf(1))}}
		}, false, ErrConfig},
		{"NaN telemetry loss", func(c *Config) { c.TelemetryLossFrac = math.NaN() }, false, ErrConfig},
		{"NaN failure scale", func(c *Config) { c.FailureRateScale = math.NaN() }, false, ErrConfig},
		{"+Inf failure scale", func(c *Config) { c.FailureRateScale = math.Inf(1) }, false, ErrConfig},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		err := cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: expected error", tc.name)
			} else if tc.target != nil && !errors.Is(err, tc.target) {
				t.Errorf("%s: error %v does not wrap %v", tc.name, err, tc.target)
			}
		}
	}
}

func TestScaledConfigValid(t *testing.T) {
	cfg := Scaled(64, 3600)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Scaled config invalid: %v", err)
	}
	if cfg.Jobs < 20 {
		t.Errorf("Scaled jobs = %d, want >= 20", cfg.Jobs)
	}
	if cfg.FailureRateScale < 1 {
		t.Errorf("failure scale = %g, want >= 1", cfg.FailureRateScale)
	}
}

func TestNewAppliesPlantTuning(t *testing.T) {
	cfg := Scaled(64, 600)
	cfg.Plant = facility.Tuning{SupplySetpointC: 18}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(s.cep.SupplyC()); math.Abs(got-18) > 1e-9 {
		t.Errorf("supply after tuned New = %g, want 18", got)
	}
}
