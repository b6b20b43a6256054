// Package stalesuppress is golden-file input for the stalesuppress
// meta-check. Unlike the other goldens this package runs under the FULL
// analyzer set: staleness is only judged for directives whose named
// checks actually ran.
package stalesuppress

import "time"

// liveSuppression stays silent: the directive suppresses a real
// virtclock finding on the next line, so it is used.
func liveSuppression() int64 {
	//lint:ignore virtclock golden: wall time intentional, value feeds nothing deterministic
	return time.Now().Unix()
}

// want+2 "lint:ignore maporder suppresses nothing"
//
//lint:ignore maporder golden: stale — nothing below iterates a map
func nothingMapLike() int { return 1 }

// want+2 "lint:ignore virtclock,detrand suppresses nothing"
//
//lint:ignore virtclock,detrand golden: stale on both named checks
func nothingTimed() int { return 2 }

// sameLineStale is stale too: directives may sit on the offending line
// itself, and this line offends nothing.
func sameLineStale() int {
	return 3 //lint:ignore closecheck golden: stale same-line directive // want "lint:ignore closecheck suppresses nothing"
}
