package sim

import "testing"

// TestIdentityPin freezes the fleet seed derivation, recorded before the
// splitmix64 finalizer moved into internal/rng.
func TestIdentityPin(t *testing.T) {
	for i, want := range []uint64{
		0xd8121accbf8b8a0e, 0xaace5d5e3f96421d, 0x60b5de156c4e532c, 0x4d39fc0ea2528016,
	} {
		if got := DeriveSeed(2020, i); got != want {
			t.Errorf("DeriveSeed(2020, %d) = %#016x, want %#016x", i, got, want)
		}
	}
}
