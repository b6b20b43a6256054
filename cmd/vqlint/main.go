// Command vqlint runs the project's static-analysis suite
// (internal/lint) over the module: determinism, virtual-clock,
// tracing, and error-handling invariants that unit tests can only
// spot-check at runtime. See docs/LINTING.md for the analyzer catalog
// and the suppression policy.
//
// Usage:
//
//	vqlint [flags] [packages]
//
// where packages are module directories or `dir/...` patterns
// (default `./...`). Per-directory relaxations come from the module
// root's .vqlint.json. Exit status: 0 when no unsuppressed findings, 1
// when findings remain, 2 on usage or load errors.
//
// Examples:
//
//	vqlint ./...                           # whole module, text output
//	vqlint -format github ./...            # CI: PR annotations
//	vqlint -checks virtclock,detrand ./... # only the determinism core
//	vqlint -cache .vqlint.cache ./...      # warm runs skip unchanged packages
//	vqlint -list                           # analyzer catalog
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vqprobe/internal/buildinfo"
	"vqprobe/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("vqlint", flag.ContinueOnError)
	var (
		format    = fs.String("format", "text", "output format: text, json, or github")
		checks    = fs.String("checks", "", "comma-separated analyzer names to run (default: all)")
		cachePath = fs.String("cache", "", "incremental cache file: unchanged packages (content + transitive imports) skip re-analysis")
		list      = fs.Bool("list", false, "list analyzers and exit")
		showSupp  = fs.Bool("show-suppressed", false, "also print suppressed findings with their reasons (text format)")
		version   = fs.Bool("version", false, "print version and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: vqlint [flags] [packages]\n\npackages are module directories or dir/... patterns (default ./...)\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *version {
		buildinfo.Print(os.Stdout, "vqlint")
		return 0
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	outFormat, err := lint.ParseFormat(*format)
	if err != nil {
		return fail(err)
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	root, _, err := lint.ModuleRoot(cwd)
	if err != nil {
		return fail(err)
	}

	cfg, err := lint.LoadConfigFile(filepath.Join(root, lint.ConfigFileName))
	if err != nil {
		return fail(err)
	}
	cfg.Checks = append(cfg.Checks, lint.SplitList(*checks)...)
	if err := cfg.Validate(lint.ByName()); err != nil {
		return fail(err)
	}

	dirs, err := resolvePatterns(root, cwd, fs.Args())
	if err != nil {
		return fail(err)
	}

	runner := &lint.Runner{Analyzers: analyzers, Config: cfg}
	result, err := lint.RunModule(root, dirs, runner, *cachePath)
	if err != nil {
		return fail(err)
	}
	for _, terr := range result.TypeErrors {
		fmt.Fprintf(os.Stderr, "vqlint: type error (analysis continues): %v\n", terr)
	}
	diags := result.Diags

	if err := lint.WriteDiagnostics(os.Stdout, diags, outFormat, root); err != nil {
		return fail(err)
	}
	if *showSupp && outFormat == lint.FormatText {
		for _, d := range diags {
			if d.Suppressed {
				rel, relErr := filepath.Rel(root, d.Pos.Filename)
				if relErr != nil {
					rel = d.Pos.Filename
				}
				fmt.Printf("%s:%d:%d: %s: suppressed (%s)\n",
					filepath.ToSlash(rel), d.Pos.Line, d.Pos.Column, d.Check, d.SuppressReason)
			}
		}
	}
	if n := lint.Unsuppressed(diags); n > 0 {
		fmt.Fprintf(os.Stderr, "vqlint: %d finding(s)\n", n)
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "vqlint: %v\n", err)
	return 2
}

// resolvePatterns maps CLI package arguments to module-relative
// directories. Supported forms: "dir", "dir/...", "./...", "...".
// No arguments means the whole module.
func resolvePatterns(root, cwd string, args []string) ([]string, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	all, err := lint.ListPackageDirs(root)
	if err != nil {
		return nil, err
	}
	selected := map[string]bool{}
	for _, arg := range args {
		recursive := false
		if arg == "..." {
			arg, recursive = ".", true
		} else if rest, found := strings.CutSuffix(arg, "/..."); found {
			arg, recursive = rest, true
			if arg == "" {
				arg = "."
			}
		}
		abs := arg
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(cwd, arg)
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("vqlint: %s is outside the module rooted at %s", arg, root)
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		matched := false
		for _, d := range all {
			if d == rel || (recursive && (rel == "" || strings.HasPrefix(d, rel+"/"))) {
				selected[d] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("vqlint: no packages match %s", arg)
		}
	}
	dirs := make([]string, 0, len(selected))
	for d := range selected {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}
