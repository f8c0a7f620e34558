package telemetry

import (
	"math"
	"testing"
)

// TestIdentityPin freezes one sample's fan-in delay, recorded before
// hashDelay moved onto rng.Mix64.
func TestIdentityPin(t *testing.T) {
	got := math.Float64bits(Delay(Sample{Node: 17, Metric: Metric(3), T: 1577836800, Value: 1}))
	if got != 0x3ffe16d6c1ea1f7f {
		t.Errorf("Delay = %#016x, want 0x3ffe16d6c1ea1f7f", got)
	}
}
