// Package clock is the dependency half of the determinism reachability
// fixture: it hides a wall-clock read behind an innocent-looking helper in
// a *different* package, on no swept list — only the call graph finds it.
package clock

import "time"

// NowUnix leaks the wall clock.
func NowUnix() int64 {
	return time.Now().Unix() // want `time\.Now reads the wall clock, reachable from determinism root root\.Step`
}

// Frozen is deterministic; reaching it from a root is fine.
func Frozen() int64 { return 1_577_836_800 }
