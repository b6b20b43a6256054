package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vqprobe/internal/metrics"
)

func TestPercentileRefusesUnsupported(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, p := range []float64{0, 0.99, 42, 90, 95, 99.9, 100, math.NaN()} {
		if _, err := percentile(xs, p); err == nil {
			t.Errorf("percentile(%.6g) accepted an unsupported percentile", p)
		}
	}
	for p, want := range map[float64]float64{50: 50, 99: 99} {
		got, err := percentile(xs, p)
		if err != nil || got != want {
			t.Errorf("percentile(1..100, %.6g) = %.6g, %v; want %.6g", p, got, err, want)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples succeeded")
	}
	if got := beyond(minAnswers, 99); got != minTail {
		t.Errorf("beyond(%d, 99) = %d, want %d", minAnswers, got, minTail)
	}
	if got := beyond(minAnswers-1, 99); got >= minTail {
		t.Errorf("beyond(%d, 99) = %d; minAnswers is not the fewest answers with %d beyond the p99", minAnswers-1, got, minTail)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
		{[]float64{0.9, 1.1, 1.0, 1.3, 0.95, 1.05, 1.2, 0.85, 1.15, 1.0}, [3]float64{0.9375, 1.025, 1.1625}},
	} {
		q1, q2, q3 := quartiles(append([]float64(nil), c.xs...))
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %.6g, want %.6g", c.xs, i, got, c.want[i])
			}
		}
	}
}

// probeTrace is a speedTrace sampled every 20 ms from t0 for 10 s,
// reading slowdown 1 for the first 4 s and 2 after.
func probeTrace(t0 time.Time) speedTrace {
	var s []probeSample
	for at := time.Duration(0); at < 10*time.Second; at += 20 * time.Millisecond {
		ns := float64(refProbeNS)
		if at >= 4*time.Second {
			ns *= 2
		}
		s = append(s, probeSample{at: t0.Add(at), ns: ns})
	}
	return speedTrace{samples: s, span: probeSpan}
}

func TestWindowStatsAtReferenceSpeed(t *testing.T) {
	// A 10 s window over which the host runs at reference speed for 4 s
	// and at half speed after. At reference speed the server answers 200
	// ten-row requests per 0.5 s slice, 1 ms each; at half speed 100,
	// 2 ms each.
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	sp := probeTrace(t0)
	window := 10 * time.Second
	var as []answered
	for s := 0; s < 20; s++ {
		n, lat := 200, 1.0
		if s >= 8 {
			n, lat = 100, 2.0
		}
		for i := 0; i < n; i++ {
			at := time.Duration(s)*sliceLen + time.Duration(i+1)*sliceLen/time.Duration(n)
			as = append(as, answered{at: at, lat: lat, rows: 10})
		}
	}
	slow := sp.slowdowns(t0, window, 20)
	for i, s := range slow {
		if want := map[bool]float64{true: 1, false: 2}[i < 8]; s != want {
			t.Fatalf("slice %d slowdown = %.6g, want %.6g", i, s, want)
		}
	}
	// At reference speed the whole window is the first stretch's level.
	rowsPerS, p50, p99, err := windowStats(as, window, slow)
	if err != nil || rowsPerS != 4000 || p50 != 1 || p99 != 1 {
		t.Errorf("windowStats = %.6g rows/s, p50 %.6g ms, p99 %.6g ms, %v; want 4000, 1, 1", rowsPerS, p50, p99, err)
	}
	// As measured: 2800 answers over 10 s, 1200 of them at 2 ms.
	ones := make([]float64, 20)
	for i := range ones {
		ones[i] = 1
	}
	rowsPerS, p50, p99, err = windowStats(as, window, ones)
	if err != nil || rowsPerS != 2800 || p50 != 1 || p99 != 2 {
		t.Errorf("windowStats as measured = %.6g rows/s, p50 %.6g ms, p99 %.6g ms, %v; want 2800, 1, 2", rowsPerS, p50, p99, err)
	}

	if _, _, _, err := windowStats(as[:minAnswers-1], window, slow); err == nil {
		t.Errorf("windowStats accepted %d answers, too few for %d beyond the p99", minAnswers-1, minTail)
	}
	// An interval counts its length over the slowdown of each piece:
	// 1 s at reference speed plus 2 s at half speed last 2 s.
	if got := sp.refDuration(t0.Add(3*time.Second), t0.Add(6*time.Second)); got != 2*time.Second {
		t.Errorf("refDuration = %v, want 2s", got)
	}
}

func TestProbeLines(t *testing.T) {
	s, err := parseProbeLine("1700000000000000000 213456")
	if err != nil || s.ns != 213456 || !s.at.Equal(time.Unix(0, 1700000000000000000)) {
		t.Errorf("parseProbeLine = %+v, %v", s, err)
	}
	for _, bad := range []string{"", "1 2 3", "x 2", "1 -5", "1 0"} {
		if _, err := parseProbeLine(bad); err == nil {
			t.Errorf("parseProbeLine(%q) succeeded", bad)
		}
	}
}

func TestParsePromMatchesRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("vqserve_requests_total", "requests").Add(41)
	reg.Counter(`vqroute_replica_shed_total{replica="http://a"}`, "shed").Add(3)
	reg.Counter(`vqroute_replica_shed_total{replica="http://b"}`, "shed").Add(4)
	reg.Gauge(`vqserve_queue_depth{shard="0"}`, "depth").Set(2.5)
	h := reg.Histogram(`vqserve_stage_latency_seconds{stage="queue"}`, "latency", metrics.LatencyBuckets)
	h.Observe(0.001)
	h.Observe(0.003)
	reg.Histogram(`vqserve_stage_latency_seconds{stage="predict"}`, "latency", metrics.LatencyBuckets).Observe(1)
	var buf bytes.Buffer
	reg.WriteText(&buf)

	m, err := parseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		base   string
		labels []string
		want   float64
	}{
		{"vqserve_requests_total", nil, 41},
		{"vqroute_replica_shed_total", nil, 7},
		{"vqroute_replica_shed_total", []string{`replica="http://b"`}, 4},
		{"vqserve_queue_depth", nil, 2.5},
		{"vqserve_stage_latency_seconds_count", []string{`stage="queue"`}, 2},
		{"vqserve_stage_latency_seconds_sum", []string{`stage="queue"`}, 0.004},
		{"vqserve_stage_latency_seconds_count", nil, 3},
		{"vqserve_absent_total", nil, 0},
	} {
		if got := series(m, c.base, c.labels...); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("series(%s, %v) = %.6g, want %.6g", c.base, c.labels, got, c.want)
		}
	}
	// A family name is not a prefix match: vqserve_requests must not sum
	// vqserve_requests_total.
	if got := series(m, "vqserve_requests"); got != 0 {
		t.Errorf("series(vqserve_requests) = %.6g, want 0", got)
	}
	if _, err := parseProm(strings.NewReader("vqserve_x notanumber\n")); err == nil {
		t.Error("parseProm accepted a non-numeric value")
	}
}

func TestParseStatFixtures(t *testing.T) {
	// utime and stime are fields 14 and 15; the command name may hold
	// spaces and parentheses.
	for _, c := range []struct {
		line string
		want int64
	}{
		{"4242 (vqserve) S 1 4242 4242 0 -1 4194304 1234 0 0 0 150 50 0 0 20 0 8 0 12345 1234567 3000", 2e9},
		{"77 (vq (serve) x) R 1 77 77 0 -1 4194560 9 0 0 0 7 3 0 0 20 0 1 0 5 6 7", 1e8},
	} {
		got, err := parseStat(c.line)
		if err != nil || got != c.want {
			t.Errorf("parseStat(%q) = %d, %v; want %d", c.line, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "12 (x) S 1 2", "12 (x) S 1 2 3 4 5 6 7 8 9 10 u s"} {
		if _, err := parseStat(bad); err == nil {
			t.Errorf("parseStat(%q) succeeded", bad)
		}
	}
	if b, err := os.ReadFile("/proc/self/stat"); err == nil {
		if _, err := parseStat(string(b)); err != nil {
			t.Errorf("parseStat(/proc/self/stat): %v", err)
		}
	}

	hwm, err := parseHWM("Name:\tvqserve\nVmPeak:\t  20000 kB\nVmHWM:\t   13952 kB\nVmRSS:\t   13000 kB\n")
	if err != nil || hwm != 13952*1024 {
		t.Errorf("parseHWM = %d, %v; want %d", hwm, err, 13952*1024)
	}
	if _, err := parseHWM("VmRSS:\t 1 kB\n"); err == nil {
		t.Error("parseHWM accepted a status without VmHWM")
	}

	cpus, err := parseCPUList("0-2,5\n")
	if err != nil || !reflect.DeepEqual(cpus, []int{0, 1, 2, 5}) {
		t.Errorf("parseCPUList = %v, %v", cpus, err)
	}
}

// fakeGen is a request generator over a two-session corpus with known
// oracle answers.
func fakeGen() *requestGen {
	c := &corpus{
		fvs:   []metrics.Vector{{"a": 1}, {"a": 2}},
		json:  [][]byte{[]byte(`{"a":1}`), []byte(`{"a":2}`)},
		class: []string{"good", "wifi_severe"},
		rule:  []string{"a <= 1 → good", "a > 1 → wifi_severe"},
	}
	return &requestGen{c: c, seed: 1, rows: 3, explain: true}
}

func TestCheckCountsEveryWrongRow(t *testing.T) {
	g := fakeGen()
	rows := []row{{sess: 0}, {sess: 1, explain: true}, {sess: 0}}
	line := func(i int, class, rule string) string {
		a := answer{ID: string(appendID(nil, 9, i, rows[i])), Class: class, Rule: rule}
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	good := line(0, "good", "") + line(1, "wifi_severe", "a > 1 → wifi_severe") + line(2, "good", "")
	for _, c := range []struct {
		name         string
		status       int
		body         string
		failed, mism int
	}{
		{"all correct", 200, good, 0, 0},
		{"wrong class", 200, line(0, "wifi_severe", "") + line(1, "wifi_severe", "a > 1 → wifi_severe") + line(2, "good", ""), 1, 1},
		{"wrong rule", 200, line(0, "good", "") + line(1, "wifi_severe", "other") + line(2, "good", ""), 1, 1},
		{"wrong id", 200, line(1, "good", "") + line(1, "wifi_severe", "a > 1 → wifi_severe") + line(2, "good", ""), 1, 1},
		{"error row", 200, `{"id":"x","error":"shed"}` + "\n" + line(1, "wifi_severe", "a > 1 → wifi_severe") + line(2, "good", ""), 1, 0},
		{"missing rows", 200, line(0, "good", ""), 2, 0},
		{"http error", 503, "", 3, 0},
	} {
		failed, mism := g.check(9, rows, c.status, []byte(c.body))
		if failed != c.failed || mism != c.mism {
			t.Errorf("%s: check = %d failed, %d mismatched; want %d, %d", c.name, failed, mism, c.failed, c.mism)
		}
	}

	// The body the generator sends is what check expects back.
	body := string(g.body(nil, 9, rows))
	if !strings.Contains(body, `"id":"s1.9.1","features":{"a":2},"explain":true}`) || strings.Count(body, "\n") != 3 {
		t.Errorf("unexpected request body:\n%s", body)
	}
}

func TestUnion(t *testing.T) {
	ms := time.Millisecond
	ivs := [][2]time.Duration{{2 * ms, 5 * ms}, {1 * ms, 3 * ms}, {7 * ms, 12 * ms}, {8 * ms, 9 * ms}}
	if got := union(ivs, 0, 10*ms); got != 7*ms {
		t.Errorf("union = %v, want 7ms ([1,5] and [7,10])", got)
	}
}

// benchSpec reads the repository's BENCHMARK.json.
func benchSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestCatalogueMatchesBenchmark(t *testing.T) {
	sp := benchSpec(t)
	kinds := map[string]metricKind{}
	for _, d := range catalogue {
		kinds[d.name] = d.kind
	}
	var want []string
	for _, m := range sp.EndToEnd {
		want = append(want, m.Name)
		if k, ok := kinds[m.Name]; !ok || k != endToEnd {
			t.Errorf("BENCHMARK.json end_to_end metric %s is not an endToEnd catalogue entry", m.Name)
		}
	}
	for _, m := range sp.PerLayer {
		want = append(want, m.Name)
		if k, ok := kinds[m.Name]; !ok || k != perLayer {
			t.Errorf("BENCHMARK.json per_layer metric %s is not a perLayer catalogue entry", m.Name)
		}
	}
	for _, d := range catalogue {
		if d.kind != extra && !contains(want, d.name) {
			t.Errorf("catalogue entry %s is reported but missing from BENCHMARK.json", d.name)
		}
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// TestSmoke runs every workload at toy scale through the real binary
// and checks that each BENCHMARK.json metric is reported and printed
// with its unit, that every answer was right, and that both output files
// are written. A toy-scale window is too short for the validity guards,
// so the run may end invalid (exit 2, nothing printed); results.json
// holds its metrics either way.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "vqbench")
	if msg, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building vqbench: %v\n%s", err, msg)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	out := filepath.Join(dir, "out")
	cmd := exec.CommandContext(ctx, bin, "-workload", "all", "-seed", "1", "-seconds", "1",
		"-sessions", "20", "-trace", "1", "-out", out)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 2 && strings.Contains(stderr.String(), "run invalid")) {
		t.Fatalf("vqbench: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	if err == nil {
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct bool  `json:"correct"`
			Failed  int64 `json:"failed"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct || res.Failed != 0 {
			t.Errorf("last line %q: %v", lines[len(lines)-1], err)
		}
	}

	var rep report
	b, err := os.ReadFile(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rep); err != nil || len(rep.Workloads) != len(workloads) {
		t.Fatalf("results.json unreadable or incomplete: %v", err)
	}
	sp := benchSpec(t)
	units := map[string]string{}
	for _, m := range sp.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, r := range rep.Workloads {
		if !r.Correct || r.Failed != 0 || r.Metrics["error_ratio"] != (value{0, "ratio"}) {
			t.Errorf("%s: correct %t, %d of %d rows failed, error_ratio %v", r.Workload, r.Correct, r.Failed, r.Attempted, r.Metrics["error_ratio"])
		}
		// printed[metric] = unit, from the "workload metric value unit" lines.
		var buf bytes.Buffer
		printResult(&buf, r)
		printed := map[string]string{}
		for _, l := range strings.Split(buf.String(), "\n") {
			if f := strings.Fields(l); len(f) == 4 && f[0] == r.Workload {
				printed[f[1]] = f[3]
			}
		}
		for name, unit := range units {
			if r.Metrics[name].Unit != unit || printed[name] != unit {
				t.Errorf("%s: %s reported as %v and printed with unit %q, want unit %q", r.Workload, name, r.Metrics[name], printed[name], unit)
			}
		}
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if b, err := os.ReadFile(filepath.Join(out, "layers.trace.json")); err != nil || json.Unmarshal(b, &tr) != nil || len(tr.TraceEvents) == 0 {
		t.Errorf("layers.trace.json unreadable or empty: %v", err)
	}
}

// writeRuns writes one results.json per value under dir: run i has seed
// i+1, starts at start + i·step, and reports the value as rows_per_s.
func writeRuns(t *testing.T, dir string, start time.Time, step time.Duration, rowsPerS []float64) {
	t.Helper()
	for i, v := range rowsPerS {
		m := map[string]value{"rows_per_s": {v, "rows/s"}}
		rep := report{Seed: int64(i + 1), Started: start.Add(time.Duration(i) * step), Workloads: []result{
			{Workload: "bulk-wide", Valid: true, Correct: true, Metrics: m},
		}}
		d := filepath.Join(dir, string(rune('a'+i)))
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeJSON(filepath.Join(d, "results.json"), rep); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	// Base runs start every two minutes; interleaved new runs start one
	// minute after the base run of their seed.
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	base := t.TempDir()
	writeRuns(t, base, t0, 2*time.Minute, []float64{1000, 1010, 990, 1005, 995})
	for _, c := range []struct {
		name    string
		start   time.Time
		next    []float64
		code    int
		verdict string
		wins    string
	}{
		{"unchanged", t0.Add(time.Minute), []float64{1001, 1011, 991, 1004, 996}, 0, " ok", "4/5"},
		{"regressed", t0.Add(time.Minute), []float64{700, 710, 690, 705, 695}, 1, "REGRESSION", "0/5"},
		{"regressed in 3 of 5 pairs", t0.Add(time.Minute), []float64{700, 710, 1000, 705, 1000}, 0, "unresolved (lost 3 of 5", "2/5"},
		// The same seeds run after the whole base set, as a set measured
		// at another time: no run pairs, so a shifted median is not a
		// regression.
		{"shifted, run later", t0.Add(time.Hour), []float64{700, 710, 690, 705, 695}, 0, "unresolved (lost 0 of 0", "0/0"},
		{"noisy", t0.Add(time.Minute), []float64{500, 1500, 800, 1300, 1000}, 0, "unresolved (spread", "3/5"},
	} {
		next := t.TempDir()
		writeRuns(t, next, c.start, 2*time.Minute, c.next)
		var out bytes.Buffer
		code, err := compare(base, next, &out)
		if err != nil {
			t.Fatal(err)
		}
		var line string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "bulk-wide") && strings.Contains(l, "rows_per_s") {
				line = l
			}
		}
		if code != c.code || !strings.Contains(line, c.verdict) || !strings.Contains(line, " "+c.wins+" ") {
			t.Errorf("%s: exit %d, line %q; want exit %d, verdict %q, wins %s", c.name, code, line, c.code, c.verdict, c.wins)
		}
	}
}
