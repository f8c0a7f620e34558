// Package core exercises //lint:allow directive validation; it is loaded
// under a simulation-package path so the determinism analyzer applies. The malformed
// directives below must be reported rather than honored, and the violations
// they fail to suppress must surface too.
package core

import "time"

// MissingReason omits the mandatory reason, so the directive is malformed
// and the wall-clock violation is still reported.
func MissingReason() time.Time {
	return time.Now() //lint:allow determinism
}

// UnknownAnalyzer names no known analyzer, so the directive is malformed and
// the wall-clock violation is still reported.
func UnknownAnalyzer() time.Time {
	return time.Now() //lint:allow clock skew is fine here
}

// RetiredName names an analyzer that no longer exists (its rule lives in
// determinism now): malformed, and the violation is still reported.
func RetiredName() time.Time {
	return time.Now() //lint:allow detreach the wall clock is only logged
}

// Valid carries a well-formed directive and is suppressed.
func Valid() time.Time {
	return time.Now() //lint:allow determinism wall clock feeds the log banner only
}
