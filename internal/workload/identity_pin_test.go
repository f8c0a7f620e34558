package workload

import (
	"math"
	"testing"
)

// TestIdentityPin freezes one sample of the random-access power noise,
// recorded before hash64 moved onto rng.Mix64.
func TestIdentityPin(t *testing.T) {
	if got := hash64(1, 2); got != 0x30883360cc68d7b1 {
		t.Errorf("hash64(1, 2) = %#016x", got)
	}
	if got := math.Float64bits(unitNoise(42, 3, 1577836800)); got != 0xbfe8760436796b44 {
		t.Errorf("unitNoise(42, 3, 1577836800) = %#016x", got)
	}
}
