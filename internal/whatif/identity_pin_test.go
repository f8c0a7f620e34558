package whatif

import "testing"

// TestIdentityPin freezes the run identity of the nominal scenario, a
// knobbed one and one with a cap schedule, recorded before Seed and Hash
// moved onto the shared internal/rng helpers.
func TestIdentityPin(t *testing.T) {
	for _, tc := range []struct {
		name string
		scn  Scenario
		want uint64
	}{
		{"nominal", Scenario{}, 0x3158ba537bca5b21},
		{"knobs", hashScenarioA(), 0x3b18816f0613320d},
		{"cap-schedule", hashScenarioB(), 0xbcc96756f831fd42},
	} {
		if got := Seed(2020, tc.scn); got != tc.want {
			t.Errorf("Seed(2020, %s) = %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
