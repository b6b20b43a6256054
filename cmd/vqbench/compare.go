package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spec is the part of BENCHMARK.json compare mode applies.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// point is one run's value of a metric, with the seed and start time
// that pair it with the other side's run.
type point struct {
	seed int64
	at   time.Time
	v    float64
}

// runs maps workload → metric → one point per run.
type runs map[string]map[string][]point

// collect gathers every valid, correct workload result from the
// results.json files under dir.
func collect(dir string) (runs, int, error) {
	out := runs{}
	files := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != "results.json" {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rep report
		if err := json.Unmarshal(b, &rep); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		files++
		for _, r := range rep.Workloads {
			if !r.Valid || !r.Correct {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]point{}
			}
			for name, v := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], point{rep.Seed, rep.Started, v.Value})
			}
		}
		return nil
	})
	return out, files, err
}

// minPairs is the fewest back-to-back pairs a REGRESSION verdict rests on.
const minPairs = 5

// compare prints, per workload and end-to-end metric, each side's
// median and quartiles and a verdict against the metric's bound from
// BENCHMARK.json:
//
//   - REGRESSION: the new median is worse than the base median by more
//     than the bound, and the new run lost at least nine in ten of at
//     least minPairs back-to-back pairs;
//   - unresolved: the median is worse by more than the bound but the
//     pairs do not confirm it, or a side's spread (quartile distance over
//     median) is wider than the bound and not every new run beats every
//     base run;
//   - ok otherwise.
//
// The pairs matter because the host can run everything 1.5× slower for
// seconds to minutes. Reporting times at the reference host speed
// (hostspeed.go) takes most of that out, but not all of it, while the two
// runs of a pair, made back to back, see much the same host. It returns
// exit code 1 when any metric regressed.
func compare(baseDir, newDir string, w io.Writer) (int, error) {
	root, err := repoRoot()
	if err != nil {
		return 2, err
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return 2, err
	}
	base, nb, err := collect(baseDir)
	if err != nil {
		return 2, err
	}
	next, nn, err := collect(newDir)
	if err != nil {
		return 2, err
	}
	if nb == 0 || nn == 0 {
		return 2, fmt.Errorf("no results.json under %s or %s", baseDir, newDir)
	}
	var names []string
	for wl := range base {
		names = append(names, wl)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d base and %d new result files; spread = (q3-q1)/median\n", nb, nn)
	fmt.Fprintf(w, "%-13s %-14s %-34s %-34s %8s %7s %6s  %s\n", "workload", "metric",
		"base median [q1, q3]", "new median [q1, q3]", "change", "bound", "wins", "verdict")
	code := 0
	for _, wl := range names {
		for _, m := range sp.EndToEnd {
			bp, np := base[wl][m.Name], next[wl][m.Name]
			if len(bp) == 0 || len(np) == 0 {
				fmt.Fprintf(w, "%-13s %-14s missing on one side\n", wl, m.Name)
				continue
			}
			wins, losses, pairs := pairWins(bp, np, m.Better == "higher")
			b, n := values(bp), values(np)
			bq1, bmed, bq3 := quartiles(b)
			nq1, nmed, nq3 := quartiles(n)
			// quartiles sorted both sides; worse is the relative change in
			// the metric's bad direction.
			change := (nmed - bmed) / bmed
			worse, allBetter := change, n[len(n)-1] < b[0]
			if m.Better == "higher" {
				worse, allBetter = -change, n[0] > b[len(b)-1]
			}
			spread := max((bq3-bq1)/bmed, (nq3-nq1)/nmed)
			verdict := "ok"
			switch {
			case worse > m.Bound && pairs >= minPairs && 10*losses >= 9*pairs:
				verdict = "REGRESSION"
				code = 1
			case worse > m.Bound:
				verdict = fmt.Sprintf("unresolved (lost %d of %d back-to-back pairs)", losses, pairs)
			case spread > m.Bound && !allBetter:
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
			}
			fmt.Fprintf(w, "%-13s %-14s %11.4g [%9.4g, %9.4g] %11.4g [%9.4g, %9.4g] %+7.1f%% %6.0f%% %6s  %s\n",
				wl, m.Name, bmed, bq1, bq3, nmed, nq1, nq3, 100*change, 100*m.Bound,
				fmt.Sprintf("%d/%d", wins, pairs), verdict)
		}
	}
	return code, nil
}

func values(ps []point) []float64 {
	vs := make([]float64, len(ps))
	for i, p := range ps {
		vs[i] = p.v
	}
	return vs
}

// pairWins pairs a base and a new run of one seed that ran back to back,
// with no other run of either side started between them, and counts the
// pairs the new run wins and loses outright; ties count for neither
// side. Runs without a start time never pair.
func pairWins(base, next []point, higher bool) (wins, losses, pairs int) {
	type run struct {
		point
		isNew bool
	}
	var all []run
	for _, p := range base {
		all = append(all, run{p, false})
	}
	for _, p := range next {
		all = append(all, run{p, true})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if a.isNew == b.isNew || a.seed != b.seed || a.at.IsZero() {
			continue
		}
		if a.isNew {
			a, b = b, a
		}
		pairs++
		switch {
		case (higher && b.v > a.v) || (!higher && b.v < a.v):
			wins++
		case b.v != a.v:
			losses++
		}
		i++ // a run belongs to one pair at most
	}
	return wins, losses, pairs
}
