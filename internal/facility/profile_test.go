package facility

import (
	"testing"

	"repro/internal/units"
)

// TestProfileHybridIsNoOp pins that the hybrid profile (and the empty
// profile) leave the Summit-calibrated defaults bit-identical — the
// single-floor path must not change.
func TestProfileHybridIsNoOp(t *testing.T) {
	w := NewWeather(7)
	ref := NewCEP(w)
	for _, p := range []Profile{"", ProfileHybridAirWater} {
		c := NewCEP(w)
		if err := c.ApplyProfile(p); err != nil {
			t.Fatalf("ApplyProfile(%q): %v", p, err)
		}
		if *c != *ref {
			t.Fatalf("profile %q mutated the plant: %+v", p, c)
		}
	}
}

func TestProfileDirectLiquid(t *testing.T) {
	c := NewCEP(NewWeather(7))
	if err := c.ApplyProfile(ProfileDirectLiquid); err != nil {
		t.Fatal(err)
	}
	if c.SupplySetpointC <= float64(units.MTWSupplyNominalF.C()) {
		t.Fatalf("direct-liquid supply %g not warmer than Summit nominal", c.SupplySetpointC)
	}
	if c.SupplyC() != units.Celsius(c.SupplySetpointC) {
		t.Fatalf("loop not re-settled: supply %v", c.SupplyC())
	}
	if c.TowerKWPerTon >= 0.14 || c.ChillerKWPerTon >= 0.75 {
		t.Fatalf("direct-liquid plant not more efficient per ton: %g / %g",
			c.TowerKWPerTon, c.ChillerKWPerTon)
	}
	// Tuning still lands on top of the profile.
	if err := c.Tune(Tuning{SupplySetpointC: 28}); err != nil {
		t.Fatal(err)
	}
	if c.SupplySetpointC != 28 {
		t.Fatalf("tuning did not override profile: %g", c.SupplySetpointC)
	}
}

func TestProfileUnknown(t *testing.T) {
	c := NewCEP(NewWeather(7))
	if err := c.ApplyProfile("immersion"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// TestProfileStaysOnEconomizer checks the architectural point of warm-water
// cooling: under weather where Summit's plant needs trim chillers, the
// direct-liquid plant carries the load on towers alone.
func TestProfileStaysOnEconomizer(t *testing.T) {
	dl := NewCEP(NewWeather(7))
	if err := dl.ApplyProfile(ProfileDirectLiquid); err != nil {
		t.Fatal(err)
	}
	hot := 24.0 // wet bulb well above Summit's 21.1 °C set point
	if f := dl.towerCapacityFrac(hot); f < 1 {
		t.Fatalf("direct-liquid towers should carry wet bulb %g fully, got frac %g", hot, f)
	}
	sm := NewCEP(NewWeather(7))
	if f := sm.towerCapacityFrac(hot); f >= 1 {
		t.Fatalf("hybrid plant unexpectedly economizes at wet bulb %g", hot)
	}
}
