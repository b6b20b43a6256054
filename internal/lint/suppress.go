package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// DirectiveCheckName is the meta-check that validates suppression
// directives themselves. It cannot be excluded by configuration: a
// suppression without a written reason defeats the audit trail the
// directive exists to provide.
const DirectiveCheckName = "directive"

// directivePrefix is the comment form recognized for suppression:
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// placed either on the offending line or on the line directly above
// it. <check> may be "all". The reason is mandatory and free-form; it
// is carried into JSON output so audits can review every suppression.
const directivePrefix = "//lint:ignore"

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos    token.Position
	checks []string
	reason string

	// used is set by applySuppressions when the directive suppressed at
	// least one diagnostic this run; stalesuppress reports directives
	// that stay false even though every check they name ran.
	used bool
}

// matches reports whether the directive covers check `name` on `line`
// of its file: same line or the line immediately below the directive.
func (d *ignoreDirective) matches(name string, line int) bool {
	if line != d.pos.Line && line != d.pos.Line+1 {
		return false
	}
	return contains(d.checks, name) || contains(d.checks, "all")
}

// parseDirectives extracts the suppression directives from one file and
// reports malformed ones through report (as DirectiveCheckName
// diagnostics).
func parseDirectives(fset *token.FileSet, f *ast.File, known map[string]*Analyzer, report func(Diagnostic)) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			bad := func(msg string) {
				report(Diagnostic{
					Check:    DirectiveCheckName,
					Severity: SeverityError,
					Pos:      pos,
					Message:  msg,
					Fix:      "write `//lint:ignore <check> <reason>` with a non-empty reason",
				})
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				bad("malformed //lint:ignore: missing check name and reason")
				continue
			}
			checks := SplitList(fields[0])
			reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
			if reason == "" {
				bad("//lint:ignore " + fields[0] + " has no reason: every suppression must explain itself")
				continue
			}
			valid := true
			for _, name := range checks {
				if name == "all" || name == DirectiveCheckName {
					bad("//lint:ignore may not suppress " + name + ": name the specific check being silenced")
					valid = false
					break
				}
				if _, knownCheck := known[name]; !knownCheck {
					bad("//lint:ignore names unknown check " + name)
					valid = false
					break
				}
			}
			if !valid {
				continue
			}
			out = append(out, ignoreDirective{
				pos:    pos,
				checks: checks,
				reason: reason,
			})
		}
	}
	return out
}

// applySuppressions marks diagnostics covered by a directive in their
// file and flags each directive that earned its keep. Directive and
// stalesuppress diagnostics themselves are never suppressed.
func applySuppressions(diags []Diagnostic, byFile map[string][]ignoreDirective) {
	for i := range diags {
		d := &diags[i]
		if d.Check == DirectiveCheckName || d.Check == StaleSuppressCheckName {
			continue
		}
		dirs := byFile[d.Pos.Filename]
		for j := range dirs {
			if dirs[j].matches(d.Check, d.Pos.Line) {
				d.Suppressed = true
				d.SuppressReason = dirs[j].reason
				dirs[j].used = true
				break
			}
		}
	}
}
