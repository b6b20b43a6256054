package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Config controls which analyzers run where. It merges three layers,
// strongest last: the built-in default (everything on), the optional
// per-module config file (.vqlint.json at the module root), and the
// command-line -checks flag.
type Config struct {
	// Checks, when non-empty, restricts analysis to exactly these
	// analyzer names (CLI -checks).
	Checks []string

	// DirExclude maps a module-relative directory prefix to the
	// analyzer names disabled under it. The special name "all"
	// disables every analyzer for that subtree. This is the
	// per-directory relaxation layer: e.g. cmd/ legitimately uses the
	// wall clock, so .vqlint.json ships {"dirExclude":{"cmd":
	// ["virtclock"]}}.
	DirExclude map[string][]string `json:"dirExclude"`
}

// ConfigFileName is looked up at the module root by LoadConfigFile.
const ConfigFileName = ".vqlint.json"

// LoadConfigFile reads path as a Config. A missing file yields an empty
// config and no error; a malformed one is an error (silently ignoring a
// typo'd config would un-enforce invariants).
func LoadConfigFile(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Config{}, nil
	}
	if err != nil {
		return nil, err
	}
	var cfg Config
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("lint: parsing %s: %w", path, err)
	}
	return &cfg, nil
}

// Validate checks every analyzer name mentioned by the config against
// the known set, so a typo fails loudly instead of silently running (or
// skipping) the wrong check.
func (c *Config) Validate(known map[string]*Analyzer) error {
	var bad []string
	check := func(names []string) {
		for _, n := range names {
			if n == "all" {
				continue
			}
			if _, ok := known[n]; !ok {
				bad = append(bad, n)
			}
		}
	}
	check(c.Checks)
	for _, names := range c.DirExclude {
		check(names)
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	knownNames := make([]string, 0, len(known))
	for n := range known {
		knownNames = append(knownNames, n)
	}
	sort.Strings(knownNames)
	return fmt.Errorf("lint: unknown analyzer name(s) %s (known: %s)",
		strings.Join(bad, ", "), strings.Join(knownNames, ", "))
}

// Enabled reports whether analyzer name should run at all given the
// Checks restriction. The directive meta-check always runs: a
// malformed suppression must be caught even in a restricted run.
func (c *Config) Enabled(name string) bool {
	return len(c.Checks) == 0 || contains(c.Checks, name) || name == DirectiveCheckName
}

// EnabledIn reports whether analyzer name runs for a package in
// module-relative directory relDir, honoring DirExclude subtree rules.
func (c *Config) EnabledIn(name, relDir string) bool {
	if !c.Enabled(name) {
		return false
	}
	for prefix, names := range c.DirExclude {
		prefix = strings.Trim(prefix, "/")
		if relDir != prefix && !strings.HasPrefix(relDir, prefix+"/") {
			continue
		}
		if contains(names, name) || contains(names, "all") {
			return false
		}
	}
	return true
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// SplitList parses a comma-separated flag value into trimmed non-empty
// names.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
