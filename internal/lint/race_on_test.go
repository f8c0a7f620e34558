//go:build race

package lint_test

const raceDetector = true
