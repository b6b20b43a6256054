package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// cacheVersion invalidates every entry when bumped. The cache key
// covers linted file contents, the analyzer set (by name) and the
// config, but not the analyzers' code: internal/lint is imported by no
// linted package, so editing an analyzer's logic changes no other
// package's content key. Bump this whenever a change to the cache
// format or to any analyzer's logic can alter findings, or warm caches
// keep replaying the old results.
const cacheVersion = 1

// cacheFile is the on-disk incremental cache: one entry per package
// directory, keyed by a content hash that covers the package's own
// linted files AND its transitive module-internal imports. That key is
// sound because every diagnostic a package can produce depends only on
// its own source and its imports: taint propagates from callee to
// caller, sink markers live on callees, and suppression staleness is
// package-local. A package's callers can change freely without
// invalidating it.
type cacheFile struct {
	Version    int                    `json:"version"`
	ConfigHash string                 `json:"configHash"`
	Entries    map[string]*cacheEntry `json:"entries"`
}

// cacheEntry holds one package's cached results. Summary rides along so
// a cached package still contributes its call-graph and source facts to
// the module-wide taint fixpoint when other packages re-analyze.
type cacheEntry struct {
	Key     string          `json:"key"`
	Diags   []Diagnostic    `json:"diags"`
	Summary *PackageSummary `json:"summary"`
}

// ModuleRunResult reports what a cached run did.
type ModuleRunResult struct {
	Diags      []Diagnostic
	Analyzed   int     // packages loaded and analyzed this run
	Cached     int     // packages served from the cache
	TypeErrors []error // loader complaints from freshly analyzed packages
}

// RunModule loads and analyzes the module's dirs with r. cachePath,
// when non-empty, enables the incremental cache: packages whose content
// key matches are served from the file without parsing or
// type-checking, which is where nearly all of a run's time goes (the
// source importer compiles the stdlib from scratch).
func RunModule(root string, dirs []string, r *Runner, cachePath string) (ModuleRunResult, error) {
	var res ModuleRunResult
	if dirs == nil {
		var err error
		dirs, err = ListPackageDirs(root)
		if err != nil {
			return res, err
		}
	}

	if cachePath == "" {
		loader := NewLoader()
		pkgs, err := loader.LoadModule(root, dirs)
		if err != nil {
			return res, err
		}
		res.Diags = r.Run(pkgs)
		res.Analyzed = len(pkgs)
		for _, p := range pkgs {
			res.TypeErrors = append(res.TypeErrors, p.TypeErrors...)
		}
		return res, nil
	}

	keys, err := moduleContentKeys(root)
	if err != nil {
		return res, err
	}
	cfgHash := runConfigHash(r)

	cache := readCache(cachePath)
	if cache.Version != cacheVersion || cache.ConfigHash != cfgHash {
		cache = &cacheFile{Version: cacheVersion, ConfigHash: cfgHash, Entries: map[string]*cacheEntry{}}
	}

	// Split the selection into cache hits and packages to analyze, and
	// gather every valid summary module-wide: facts from unchanged
	// packages feed the taint fixpoint for free.
	var toLoad []string
	var cachedDiags []Diagnostic
	var extra []*PackageSummary
	loading := map[string]bool{}
	for _, rel := range dirs {
		e := cache.Entries[rel]
		if e != nil && e.Key == keys[rel] {
			cachedDiags = append(cachedDiags, e.Diags...)
			res.Cached++
			continue
		}
		toLoad = append(toLoad, rel)
		loading[rel] = true
	}
	for rel, e := range cache.Entries {
		if !loading[rel] && e.Key == keys[rel] && e.Summary != nil {
			extra = append(extra, e.Summary)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i].Path < extra[j].Path })

	var fresh []Diagnostic
	if len(toLoad) > 0 {
		loader := NewLoader()
		pkgs, err := loader.LoadModule(root, toLoad)
		if err != nil {
			return res, err
		}
		fresh = r.RunWith(pkgs, extra)
		res.Analyzed = len(pkgs)
		for _, p := range pkgs {
			res.TypeErrors = append(res.TypeErrors, p.TypeErrors...)
		}

		// Fold the fresh results back into the cache, grouped by the
		// package directory each diagnostic's file lives in.
		byDir := map[string][]Diagnostic{}
		for _, d := range fresh {
			rel, relErr := filepath.Rel(root, filepath.Dir(d.Pos.Filename))
			if relErr != nil {
				continue
			}
			rel = filepath.ToSlash(rel)
			if rel == "." {
				rel = ""
			}
			byDir[rel] = append(byDir[rel], d)
		}
		for _, pkg := range pkgs {
			cache.Entries[pkg.RelDir] = &cacheEntry{
				Key:     keys[pkg.RelDir],
				Diags:   byDir[pkg.RelDir],
				Summary: pkg.summary,
			}
		}
		// Drop entries for directories that no longer exist.
		for rel := range cache.Entries {
			if _, ok := keys[rel]; !ok {
				delete(cache.Entries, rel)
			}
		}
		if err := writeCache(cachePath, cache); err != nil {
			return res, err
		}
	}

	res.Diags = append(cachedDiags, fresh...)
	SortDiagnostics(res.Diags)
	return res, nil
}

// readCache loads the cache file; any problem (missing, corrupt, stale
// schema) yields an empty cache — the cache is an accelerator, never a
// correctness input.
func readCache(path string) *cacheFile {
	empty := &cacheFile{Version: 0, Entries: map[string]*cacheEntry{}}
	data, err := os.ReadFile(path)
	if err != nil {
		return empty
	}
	var c cacheFile
	if json.Unmarshal(data, &c) != nil || c.Entries == nil {
		return empty
	}
	return &c
}

func writeCache(path string, c *cacheFile) error {
	data, err := json.Marshal(c)
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}

// runConfigHash keys the cache on the analyzer set, the effective
// config and cacheVersion. Analyzer logic is not part of it; see
// cacheVersion.
func runConfigHash(r *Runner) string {
	h := sha256.New()
	fmt.Fprintln(h, "v"+strconv.Itoa(cacheVersion))
	for _, a := range r.Analyzers {
		fmt.Fprintln(h, a.Name)
	}
	if r.Config != nil {
		cfg, _ := json.Marshal(struct {
			Checks     []string
			DirExclude map[string][]string
		}{r.Config.Checks, r.Config.DirExclude})
		h.Write(cfg)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// moduleContentKeys computes, for every package directory of the
// module, a hash covering its own linted files and those of its
// transitive module-internal imports. Import edges come from a
// lightweight ImportsOnly parse — no type checking.
func moduleContentKeys(root string) (map[string]string, error) {
	_, modPath, err := ModuleRoot(root)
	if err != nil {
		return nil, err
	}
	dirs, err := ListPackageDirs(root)
	if err != nil {
		return nil, err
	}

	own := make(map[string]string, len(dirs))
	deps := make(map[string][]string, len(dirs))
	dirSet := map[string]bool{}
	for _, rel := range dirs {
		dirSet[rel] = true
	}
	fset := token.NewFileSet()
	for _, rel := range dirs {
		dir := filepath.Join(root, filepath.FromSlash(rel))
		if rel == "" {
			dir = root
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		h := sha256.New()
		var imps []string
		impSeen := map[string]bool{}
		for _, e := range entries {
			if e.IsDir() || !isLintedGoFile(e.Name()) {
				continue
			}
			path := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			fmt.Fprintln(h, e.Name(), len(data))
			h.Write(data)
			f, err := parser.ParseFile(fset, path, data, parser.ImportsOnly)
			if err != nil {
				continue // a syntax error also changes the content hash
			}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				var depRel string
				switch {
				case p == modPath:
					depRel = ""
				case strings.HasPrefix(p, modPath+"/"):
					depRel = strings.TrimPrefix(p, modPath+"/")
				default:
					continue
				}
				if dirSet[depRel] && depRel != rel && !impSeen[depRel] {
					impSeen[depRel] = true
					imps = append(imps, depRel)
				}
			}
		}
		own[rel] = hex.EncodeToString(h.Sum(nil))
		sort.Strings(imps)
		deps[rel] = imps
	}

	// Transitive closure: key(dir) = H(own(dir), key(dep)...), memoized.
	// Import cycles cannot occur in compiling Go code; the visiting
	// guard just prevents runaway on broken source.
	keys := make(map[string]string, len(dirs))
	visiting := map[string]bool{}
	var key func(rel string) string
	key = func(rel string) string {
		if k, ok := keys[rel]; ok {
			return k
		}
		if visiting[rel] {
			return "cycle"
		}
		visiting[rel] = true
		h := sha256.New()
		fmt.Fprintln(h, own[rel])
		for _, dep := range deps[rel] {
			fmt.Fprintln(h, dep, key(dep))
		}
		k := hex.EncodeToString(h.Sum(nil))
		visiting[rel] = false
		keys[rel] = k
		return k
	}
	for _, rel := range dirs {
		key(rel)
	}
	return keys, nil
}
