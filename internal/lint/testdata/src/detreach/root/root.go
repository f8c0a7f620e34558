// Package root is the annotated half of the determinism reachability
// fixture.
package root

import (
	"time"

	"repro/internal/lint/testdata/src/detreach/clock"
)

// Step is the fixture's simulation entry point: the wall-clock read two
// calls away (helper → clock.NowUnix → time.Now) must be reported with the
// full chain.
//
//lint:detroot
func Step() int64 {
	return helper() + clock.Frozen() + allowedHelper()
}

// Replay is a second root over the same helper: the wall-clock read is
// still one site, reported once (under Step, the first root in order).
//
//lint:detroot
func Replay() int64 { return helper() }

func helper() int64 { return clock.NowUnix() }

// allowedHelper pins //lint:allow suppression of a reached site: the read
// below is reachable from Step but explicitly sanctioned.
func allowedHelper() int64 {
	//lint:allow determinism fixture exception with a reason
	return time.Now().UnixNano()
}

// Unreached also reads the clock, but no detroot can reach it and this
// package is not on the swept list, so determinism stays silent about it.
func Unreached() int64 { return time.Now().Unix() }
