package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"vqprobe/internal/lint"
)

// selfLintSetup resolves the real module root and its lint config —
// the benchmarks measure the exact workload `go run ./cmd/vqlint ./...`
// pays in CI.
func selfLintSetup(b *testing.B) (string, *lint.Runner) {
	b.Helper()
	wd, err := filepath.Abs(".")
	if err != nil {
		b.Fatal(err)
	}
	root, _, err := lint.ModuleRoot(wd)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := lint.LoadConfigFile(filepath.Join(root, lint.ConfigFileName))
	if err != nil {
		b.Fatal(err)
	}
	return root, &lint.Runner{Analyzers: lint.All(), Config: cfg}
}

// BenchmarkSelfLintCold is the first-run cost: every package parsed,
// type-checked (the source importer compiles the stdlib from scratch),
// and analyzed, with the cache written but never read.
func BenchmarkSelfLintCold(b *testing.B) {
	root, runner := selfLintSetup(b)
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cachePath := filepath.Join(dir, "cold.cache.json")
		os.Remove(cachePath)
		b.StartTimer()
		if _, err := lint.RunModule(root, nil, runner, cachePath); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelfLintWarm is the steady-state cost with an unchanged
// tree: content hashing plus a cache read, no type-checking at all.
// bench_report.py derives the cold/warm speedup recorded in
// reports/BENCH.json from this pair.
func BenchmarkSelfLintWarm(b *testing.B) {
	root, runner := selfLintSetup(b)
	cachePath := filepath.Join(b.TempDir(), "warm.cache.json")
	if _, err := lint.RunModule(root, nil, runner, cachePath); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lint.RunModule(root, nil, runner, cachePath)
		if err != nil {
			b.Fatal(err)
		}
		if res.Analyzed != 0 {
			b.Fatalf("warm run re-analyzed %d packages; the cache is not hitting", res.Analyzed)
		}
	}
}
