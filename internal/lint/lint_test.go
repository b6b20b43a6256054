package lint_test

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vqprobe/internal/lint"
)

func TestConfigEnabledIn(t *testing.T) {
	cfg := &lint.Config{
		DirExclude: map[string][]string{
			"cmd":            {"virtclock"},
			"internal/serve": {"all"},
		},
	}
	cases := []struct {
		check, dir string
		want       bool
	}{
		{"virtclock", "internal/simnet", true},
		{"virtclock", "cmd", false},
		{"virtclock", "cmd/vqsim", false},     // subtree inherits
		{"virtclock", "cmdx", true},           // prefix must be a path boundary
		{"maporder", "cmd/vqsim", true},       // only the named check is relaxed
		{"maporder", "internal/serve", false}, // "all" disables everything
	}
	for _, c := range cases {
		if got := cfg.EnabledIn(c.check, c.dir); got != c.want {
			t.Errorf("EnabledIn(%s, %s) = %v, want %v", c.check, c.dir, got, c.want)
		}
	}
}

func TestConfigChecksRestriction(t *testing.T) {
	cfg := &lint.Config{Checks: []string{"virtclock"}}
	if !cfg.Enabled("virtclock") {
		t.Error("selected check disabled")
	}
	if cfg.Enabled("maporder") {
		t.Error("-checks virtclock must disable other analyzers")
	}
	if !cfg.Enabled(lint.DirectiveCheckName) {
		t.Error("directive meta-check must survive -checks restriction")
	}
}

func TestConfigValidateRejectsUnknownNames(t *testing.T) {
	// A typo, and a removed check that a stale .vqlint.json still names.
	for _, name := range []string{"virtclocc", "mutexcopy"} {
		cfg := &lint.Config{DirExclude: map[string][]string{"cmd": {name}}}
		err := cfg.Validate(lint.ByName())
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("want unknown-name error mentioning %s, got %v", name, err)
		}
	}
}

func TestLoadConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, lint.ConfigFileName)

	if cfg, err := lint.LoadConfigFile(path); err != nil || len(cfg.DirExclude) != 0 {
		t.Fatalf("missing config file must yield empty config, got %+v, %v", cfg, err)
	}

	if err := os.WriteFile(path, []byte(`{"dirExclude":{"cmd":["virtclock"]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := lint.LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.EnabledIn("virtclock", "internal/simnet") || cfg.EnabledIn("virtclock", "cmd/vqsim") {
		t.Errorf("parsed config not applied: %+v", cfg)
	}

	if err := os.WriteFile(path, []byte(`{"dirExcludeTypo":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := lint.LoadConfigFile(path); err == nil {
		t.Error("unknown config fields must be rejected, not silently ignored")
	}
}

func TestSplitList(t *testing.T) {
	got := lint.SplitList(" virtclock, detrand ,,maporder ")
	want := []string{"virtclock", "detrand", "maporder"}
	if len(got) != len(want) {
		t.Fatalf("SplitList = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SplitList = %v, want %v", got, want)
		}
	}
}

func TestParseFormat(t *testing.T) {
	for _, ok := range []string{"text", "json", "github"} {
		if _, err := lint.ParseFormat(ok); err != nil {
			t.Errorf("ParseFormat(%s): %v", ok, err)
		}
	}
	if _, err := lint.ParseFormat("xml"); err == nil {
		t.Error("ParseFormat(xml) must fail")
	}
}

func sampleDiags() []lint.Diagnostic {
	return []lint.Diagnostic{
		{
			Check:    "virtclock",
			Severity: lint.SeverityError,
			Pos:      token.Position{Filename: "/mod/internal/simnet/sim.go", Line: 12, Column: 3},
			Message:  "time.Now would read the wall clock",
			Fix:      "thread the event clock",
		},
		{
			Check:          "virtclock",
			Severity:       lint.SeverityError,
			Pos:            token.Position{Filename: "/mod/internal/serve/pool.go", Line: 76, Column: 15},
			Message:        "time.Now would read the wall clock",
			Suppressed:     true,
			SuppressReason: "real request latency",
		},
	}
}

func TestWriteDiagnosticsText(t *testing.T) {
	var sb strings.Builder
	if err := lint.WriteDiagnostics(&sb, sampleDiags(), lint.FormatText, "/mod"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "internal/simnet/sim.go:12:3: virtclock: time.Now would read the wall clock") {
		t.Errorf("text output missing finding line:\n%s", out)
	}
	if !strings.Contains(out, "suggested: thread the event clock") {
		t.Errorf("text output missing fix line:\n%s", out)
	}
	if strings.Contains(out, "pool.go") {
		t.Errorf("text output must hide suppressed findings:\n%s", out)
	}
}

func TestWriteDiagnosticsJSON(t *testing.T) {
	var sb strings.Builder
	if err := lint.WriteDiagnostics(&sb, sampleDiags(), lint.FormatJSON, "/mod"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"check": "virtclock"`,
		`"file": "internal/simnet/sim.go"`,
		`"severity": "error"`,
		`"suppressed": true`,
		`"suppressReason": "real request latency"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("json output missing %s:\n%s", want, out)
		}
	}
}

func TestWriteDiagnosticsGitHub(t *testing.T) {
	var sb strings.Builder
	if err := lint.WriteDiagnostics(&sb, sampleDiags(), lint.FormatGitHub, "/mod"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "::error file=internal/simnet/sim.go,line=12,col=3,title=vqlint virtclock::") {
		t.Errorf("github output malformed:\n%s", out)
	}
	if strings.Contains(out, "pool.go") {
		t.Errorf("github output must hide suppressed findings:\n%s", out)
	}
}

func TestUnsuppressed(t *testing.T) {
	if n := lint.Unsuppressed(sampleDiags()); n != 1 {
		t.Errorf("Unsuppressed = %d, want 1", n)
	}
}

func TestSeverityString(t *testing.T) {
	if lint.SeverityWarn.String() != "warning" || lint.SeverityError.String() != "error" {
		t.Error("severity strings drive GitHub annotation commands; they must be warning/error")
	}
}

func TestModuleRootAndPackageWalk(t *testing.T) {
	wd, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	root, modPath, err := lint.ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	if modPath != "vqprobe" {
		t.Errorf("module path = %s, want vqprobe", modPath)
	}
	dirs, err := lint.ListPackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range dirs {
		seen[d] = true
		if strings.Contains(d, "testdata") {
			t.Errorf("testdata directory %s must not be walked", d)
		}
	}
	for _, want := range []string{"", "internal/lint", "internal/simnet", "cmd/vqlint"} {
		if !seen[want] {
			t.Errorf("package walk missed %q (got %d dirs)", want, len(dirs))
		}
	}
}
