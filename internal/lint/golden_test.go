package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vqprobe/internal/lint"
)

// sharedLoader amortizes the source importer's stdlib compilation
// across every golden package and the self-lint smoke test.
var sharedLoader = lint.NewLoader()

// wantRe matches expectation comments in golden files:
//
//	code() // want "regexp" "another"
//	// want+1 "regexp"   (diagnostic expected on the following line)
//
// The +N offset form exists for directive-check goldens, where the
// expectation cannot share a line with the directive it describes.
var wantRe = regexp.MustCompile(`// want(\+\d+)?((?: "(?:[^"\\]|\\.)*")+)`)

var wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseWants scans a golden source file for expectation comments.
func parseWants(t *testing.T, path string) []*expectation {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		lineNo := i + 1
		if m[1] != "" {
			var off int
			fmt.Sscanf(m[1], "+%d", &off)
			lineNo += off
		}
		for _, q := range wantArgRe.FindAllStringSubmatch(m[2], -1) {
			re, err := regexp.Compile(q[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", path, lineNo, q[1], err)
			}
			wants = append(wants, &expectation{line: lineNo, re: re})
		}
	}
	return wants
}

// goldenChecks lists every analyzer with a testdata package. Keep in
// sync with internal/lint/testdata/src/ and lint.All().
var goldenChecks = []string{
	"virtclock", "detrand", "walltaint", "maporder", "spanleak",
	"closecheck", "errflow", "directive", "stalesuppress",
}

func TestGoldenCoverageMatchesRegistry(t *testing.T) {
	have := map[string]bool{}
	for _, name := range goldenChecks {
		have[name] = true
	}
	for _, a := range lint.All() {
		if !have[a.Name] {
			t.Errorf("analyzer %s has no golden testdata package", a.Name)
		}
	}
}

func TestGolden(t *testing.T) {
	byName := lint.ByName()
	for _, name := range goldenChecks {
		t.Run(name, func(t *testing.T) {
			a, ok := byName[name]
			if !ok {
				t.Fatalf("no analyzer named %s", name)
			}
			dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := sharedLoader.LoadDir(dir, name, "vqlint.golden/"+name)
			if err != nil {
				t.Fatal(err)
			}
			for _, terr := range pkg.TypeErrors {
				t.Errorf("golden package must type-check: %v", terr)
			}

			analyzers := []*lint.Analyzer{a}
			if name == lint.StaleSuppressCheckName {
				// Staleness is only judged for directives whose named
				// checks actually ran, so this golden runs the full set.
				analyzers = lint.All()
			}
			runner := &lint.Runner{Analyzers: analyzers, Config: &lint.Config{}}
			diags := runner.Run([]*lint.Package{pkg})

			var wants []*expectation
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".go") {
					wants = append(wants, parseWants(t, filepath.Join(dir, e.Name()))...)
				}
			}
			if len(wants) == 0 {
				t.Fatal("golden package has no // want expectations; it proves nothing")
			}

			for _, d := range diags {
				if d.Suppressed {
					if d.SuppressReason == "" {
						t.Errorf("%s:%d: suppressed diagnostic lost its reason", d.Pos.Filename, d.Pos.Line)
					}
					continue
				}
				matched := false
				for _, w := range wants {
					if !w.hit && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
						w.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic %s:%d: %s: %s",
						filepath.Base(d.Pos.Filename), d.Pos.Line, d.Check, d.Message)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("missing diagnostic: want %q on line %d", w.re.String(), w.line)
				}
			}
		})
	}
}
