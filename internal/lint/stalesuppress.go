package lint

// StaleSuppressCheckName is the suppression-audit meta-check: a
// //lint:ignore directive that suppresses nothing is itself a finding.
// Dead suppressions are worse than dead code — each one is a standing
// claim that an invariant is intentionally violated at that line, and
// once the violation is gone the claim silently rots, hiding the next
// real finding that lands on the same line. Like the directive check it
// is implemented inside the runner (it needs the post-suppression match
// state), and it only fires when every check the directive names
// actually ran for the package, so a restricted `-checks` invocation
// cannot misclassify a live suppression as stale.
const StaleSuppressCheckName = "stalesuppress"

// staleSuppressDiagnostics reports the unused directives of one package
// after applySuppressions ran. ranForPkg must contain the analyzer
// names that executed for this package (enabled and selected); only
// directives whose every named check ran are auditable.
func staleSuppressDiagnostics(pkg *Package, ranForPkg map[string]bool, report func(Diagnostic)) {
	for _, fileDirs := range pkg.directives {
		for i := range fileDirs {
			d := &fileDirs[i]
			if d.used {
				continue
			}
			auditable := true
			for _, check := range d.checks {
				if !ranForPkg[check] {
					auditable = false
					break
				}
			}
			if !auditable {
				continue
			}
			report(Diagnostic{
				Check:    StaleSuppressCheckName,
				Severity: SeverityWarn,
				Pos:      d.pos,
				Message: "//lint:ignore " + joinChecks(d.checks) + " suppresses nothing: no " +
					joinChecks(d.checks) + " finding on this or the next line",
				Fix: "delete the stale directive; if the invariant is still intentionally " +
					"violated nearby, move the directive to the offending line",
			})
		}
	}
}

func joinChecks(checks []string) string {
	out := ""
	for i, c := range checks {
		if i > 0 {
			out += ","
		}
		out += c
	}
	return out
}
