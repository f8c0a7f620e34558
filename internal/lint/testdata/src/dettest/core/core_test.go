package core

import (
	"testing"
	"time"
)

// A wall clock in a parity test's helper would silently weaken the pin.
func TestStep(t *testing.T) {
	start := time.Now() // want `time\.Now reads the wall clock`
	if Step() != 1 {
		t.Fatal(start)
	}
}
