// Package directive is golden-file input for the directive meta-check:
// malformed //lint:ignore comments are diagnostics in their own right.
// Expectations use the want+1 offset form because a want comment cannot
// share a line with the directive it describes (it would parse as the
// directive's reason).
package directive

import "strings"

// want+1 "has no reason"
//lint:ignore maporder

// want+1 "missing check name and reason"
//lint:ignore

// want+1 "may not suppress all"
//lint:ignore all the whole file is special

// want+1 "names unknown check nosuchcheck"
//lint:ignore nosuchcheck the check was renamed and this comment rotted

// want+1 "names unknown check goleak"
//lint:ignore goleak the check was removed and this comment outlived it

// want+1 "may not suppress directive"
//lint:ignore directive silencing the auditor

// validDirective shows a well-formed suppression — near miss, silent.
func validDirective(m map[string]int) []string {
	var keys []string
	//lint:ignore maporder feeds a set; order never reaches output
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// plainComment mentions lint:ignore mid-sentence — near miss, silent:
// only comments starting with the directive prefix are parsed.
func plainComment() string {
	// The string "lint:ignore" below is data, not a directive.
	return strings.ToUpper("lint:ignore nothing")
}
