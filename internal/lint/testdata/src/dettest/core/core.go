// Package core is the determinism fixture for test files: its directory
// basename puts it on the swept simulation-package list, and the sweep
// covers a simulation package's _test.go files too.
package core

// Step is clean.
func Step() int { return 1 }
