package lint

import (
	"vqprobe/internal/parallel"
)

// Runner applies a set of analyzers to loaded packages, in parallel,
// with per-directory configuration and //lint:ignore suppression.
//
// A run has two phases. Phase one parses suppression directives and
// computes each package's FuncSummary facts (call edges, wall-clock /
// RNG source sites, deterministic-sink markers); the summaries — plus
// any supplied by the incremental cache for packages not loaded this
// run — merge into module-wide ModuleFacts via the taint fixpoint.
// Phase two runs the analyzers per package with those shared facts, so
// a check like walltaint sees call chains that cross package
// boundaries. Both phases fan packages out over GOMAXPROCS workers
// with internal/parallel (the training engine's pool discipline:
// per-index output slots, serial merge), so output is byte-identical
// for any worker count.
type Runner struct {
	Analyzers []*Analyzer
	Config    *Config
}

// Run analyzes pkgs and returns all diagnostics — suppressed ones
// included, flagged — sorted by position. Callers filter on Suppressed
// for exit-code decisions; formatters show or hide them as appropriate.
func (r *Runner) Run(pkgs []*Package) []Diagnostic {
	return r.RunWith(pkgs, nil)
}

// RunWith is Run with extra package summaries contributed by the
// incremental cache: facts from packages whose findings are cached (and
// therefore not re-analyzed) still participate in the module-wide taint
// fixpoint, so a cached helper that reads the wall clock taints its
// callers in freshly analyzed packages.
func (r *Runner) RunWith(pkgs []*Package, extra []*PackageSummary) []Diagnostic {
	cfg := r.Config
	if cfg == nil {
		cfg = &Config{}
	}
	// Directive validation recognizes every registered check, not just
	// the ones enabled for this run: `-checks virtclock` must not
	// reclassify a valid `//lint:ignore maporder ...` as unknown.
	known := ByName()
	for _, a := range r.Analyzers {
		known[a.Name] = a
	}

	// Phase 1: directives + per-package fact summaries, in parallel.
	parallel.For(len(pkgs), 0, func(i int) {
		preparePackage(pkgs[i], known)
	})
	sums := make([]*PackageSummary, 0, len(pkgs)+len(extra))
	for _, pkg := range pkgs {
		sums = append(sums, pkg.summary)
	}
	sums = append(sums, extra...)
	facts := BuildModuleFacts(sums)

	// Phase 2: analyzers, with the shared facts.
	perPkg := make([][]Diagnostic, len(pkgs))
	parallel.For(len(pkgs), 0, func(i int) {
		perPkg[i] = r.runPackage(pkgs[i], known, cfg, facts)
	})

	var all []Diagnostic
	for _, ds := range perPkg {
		all = append(all, ds...)
	}
	SortDiagnostics(all)
	return all
}

// preparePackage parses pkg's suppression directives (recording
// malformed ones as diagnostics for phase two to emit) and computes its
// fact summary. Idempotent: a package prepared by an earlier run keeps
// its parse results.
func preparePackage(pkg *Package, known map[string]*Analyzer) {
	if pkg.directives == nil {
		pkg.directives = make(map[string][]ignoreDirective)
		fset := pkg.Fset
		for _, f := range pkg.Files {
			name := fset.Position(f.Pos()).Filename
			pkg.directives[name] = parseDirectives(fset, f, known, func(d Diagnostic) {
				pkg.directiveDiags = append(pkg.directiveDiags, d)
			})
		}
	}
	SummarizePackage(pkg)
}

// runPackage runs every enabled analyzer over one package, applies the
// package's suppression directives, then audits them for staleness.
func (r *Runner) runPackage(pkg *Package, known map[string]*Analyzer, cfg *Config, facts *ModuleFacts) []Diagnostic {
	diags := append([]Diagnostic(nil), pkg.directiveDiags...)

	ran := map[string]bool{}
	for _, a := range r.Analyzers {
		if a.Name == DirectiveCheckName || a.Name == StaleSuppressCheckName {
			// Meta-checks: directive parsing happened in phase one;
			// staleness is judged below, after suppressions resolve.
			ran[a.Name] = true
			continue
		}
		if !cfg.EnabledIn(a.Name, pkg.RelDir) {
			continue
		}
		ran[a.Name] = true
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Path:     pkg.Path,
			RelDir:   pkg.RelDir,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			Facts:    facts,
			pkg:      pkg,
			diags:    &diags,
		}
		if a.Run != nil {
			a.Run(pass)
		}
		if a.RunFile != nil {
			for _, f := range pkg.Files {
				a.RunFile(pass, f)
			}
		}
	}

	applySuppressions(diags, pkg.directives)
	if ran[StaleSuppressCheckName] && cfg.EnabledIn(StaleSuppressCheckName, pkg.RelDir) {
		staleSuppressDiagnostics(pkg, ran, func(d Diagnostic) {
			diags = append(diags, d)
		})
	}
	return diags
}
