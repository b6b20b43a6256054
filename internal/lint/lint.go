// Package lint is a stdlib-only static-analysis engine for the vqprobe
// repository. It exists because the reproduction's scientific claims
// rest on invariants that unit tests can only spot-check at runtime:
//
//   - simulation time comes exclusively from the discrete-event virtual
//     clock, never the wall clock (DESIGN.md; the paper's controlled
//     testbed);
//   - training and evaluation are byte-identical for any worker count,
//     which forbids unseeded randomness and order-dependent map
//     iteration in output paths (docs/PERFORMANCE.md);
//   - disabled tracing is zero-cost and spans are always closed
//     (docs/OBSERVABILITY.md).
//
// The engine is deliberately small: go/parser + go/types with the
// source importer to load packages, a pluggable Analyzer interface, a
// parallel per-package runner, `//lint:ignore <check> <reason>`
// suppression directives, and text/JSON/GitHub-annotation output. See
// docs/LINTING.md for the analyzer catalog and the policy for adding
// new checks.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Severity classifies how a diagnostic should be treated by CI and the
// formatters. Errors fail the build; warnings annotate it.
type Severity int

const (
	// SeverityWarn marks style- or hygiene-level findings.
	SeverityWarn Severity = iota
	// SeverityError marks invariant violations (nondeterminism,
	// wall-clock leaks, leaked spans) that must be fixed or explicitly
	// suppressed with a reason.
	SeverityError
)

// String returns "warning" or "error", matching the GitHub annotation
// command names.
func (s Severity) String() string {
	if s == SeverityError {
		return "error"
	}
	return "warning"
}

// Diagnostic is one finding, positioned and attributed to the check
// that produced it.
type Diagnostic struct {
	Check    string         // analyzer name, e.g. "virtclock"
	Severity Severity       //
	Pos      token.Position // resolved file:line:col
	Message  string         // what is wrong
	Fix      string         // suggested fix text, may be empty

	// Suppressed is set by the runner when a `//lint:ignore` directive
	// covers this diagnostic; SuppressReason carries the directive's
	// written reason.
	Suppressed     bool
	SuppressReason string
}

// Analyzer is one pluggable check. Exactly one of Run / RunFile may be
// nil; the runner invokes Run once per package and RunFile once per
// file, so a check picks whichever granularity is natural.
type Analyzer struct {
	Name     string // short lower-case identifier used in directives and flags
	Doc      string // one-paragraph description shown by `vqlint -list`
	Severity Severity

	// Run is the package-level entry point (signature analysis,
	// cross-file state). May be nil.
	Run func(*Pass)

	// RunFile is the file-level entry point (syntax-tree walks). May be
	// nil.
	RunFile func(*Pass, *ast.File)
}

// Pass carries one type-checked package through one analyzer. The
// runner constructs a fresh Pass per (package, analyzer) pair, so
// analyzers may not retain state across calls.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Path     string // import path, e.g. "vqprobe/internal/simnet"
	RelDir   string // module-relative directory, "" for the module root
	Pkg      *types.Package
	Info     *types.Info

	// Facts holds the module-wide dataflow facts (call graph, taint
	// summaries, deterministic sinks) shared by every package of the
	// run. Nil when the runner analyzed a package in isolation without
	// building facts.
	Facts *ModuleFacts

	pkg   *Package // back-pointer for per-package caches (CFGs)
	diags *[]Diagnostic
}

// Report records a finding at pos with an optional suggested fix.
func (p *Pass) Report(pos token.Pos, message, fix string) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:    p.Analyzer.Name,
		Severity: p.Analyzer.Severity,
		Pos:      p.Fset.Position(pos),
		Message:  message,
		Fix:      fix,
	})
}

// Reportf is Report with fmt.Sprintf formatting and no fix text.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...), "")
}

// ReportPosition is Report for an already-resolved position — dataflow
// facts carry token.Position, not token.Pos, across packages.
func (p *Pass) ReportPosition(pos token.Position, message, fix string) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:    p.Analyzer.Name,
		Severity: p.Analyzer.Severity,
		Pos:      pos,
		Message:  message,
		Fix:      fix,
	})
}

// TypeOf returns the type of e, or nil when type information is
// unavailable (e.g. the package had type errors).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// PkgFunc resolves call to a package-level function (not a method) and
// returns its name and defining package path. ok is false for method
// calls, conversions, and calls of local function values.
func (p *Pass) PkgFunc(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	return pkgFuncOf(p.Info, call)
}

// pkgFuncOf is PkgFunc against raw type info, usable outside a Pass
// (the summarize phase runs before analyzers do).
func pkgFuncOf(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	if info == nil {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	var id *ast.Ident
	if isSel {
		id = sel.Sel
	} else if ident, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent {
		id = ident
	} else {
		return "", "", false
	}
	obj, found := info.Uses[id]
	if !found {
		return "", "", false
	}
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
		return "", "", false // method, not a package-level function
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// MethodCall resolves call to a method invocation and returns the
// method object and the receiver's static type. ok is false for plain
// function calls.
func (p *Pass) MethodCall(call *ast.CallExpr) (m *types.Func, recv types.Type, ok bool) {
	return methodCallOf(p.Info, call)
}

// methodCallOf is MethodCall against raw type info.
func methodCallOf(info *types.Info, call *ast.CallExpr) (m *types.Func, recv types.Type, ok bool) {
	if info == nil {
		return nil, nil, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, false
	}
	selection, found := info.Selections[sel]
	if !found || selection.Kind() != types.MethodVal {
		return nil, nil, false
	}
	fn, isFn := selection.Obj().(*types.Func)
	if !isFn {
		return nil, nil, false
	}
	return fn, selection.Recv(), true
}

// HasMethod reports whether t (or *t) has a method with the given name
// in its method set.
func HasMethod(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Pointer); !ok {
		if _, isIface := t.Underlying().(*types.Interface); !isIface {
			t = types.NewPointer(t)
		}
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}

// SortDiagnostics orders diagnostics by file, line, column, then check
// name, giving deterministic output regardless of analysis order.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}
