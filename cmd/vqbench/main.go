// Command vqbench benchmarks /diagnose end to end across real vqserve
// and vqroute processes, then replays the same requests in-process
// through each serving layer to attribute the per-row cost (the layer
// ladder). README.md describes the workloads, the metrics and how to
// compare two commits.
//
// Usage:
//
//	vqbench [-workload all|interactive|bulk-wide|bulk-narrow|fleet-narrow]
//	        [-seed N] [-seconds S] [-trace 0|1] [-out DIR] [-sessions N]
//	vqbench -compare BASE_DIR NEW_DIR
//
// A run builds the daemons, simulates and trains the model, starts the
// workload's daemons on loopback, drives the workload from this single
// process while checking every answer against the in-process model,
// and (with -trace 1) replays the requests through each layer. Times
// taken on the daemons' CPUs are reported at a reference host speed,
// which cpuprobe processes beside the daemons follow. It
// prints every metric by name and unit, writes DIR/results.json and,
// when traced, DIR/layers.trace.json (Chrome trace_event JSON; open it
// in Perfetto), and ends its standard output with one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// Exit status: 0 on success, 1 when an answer was wrong or the run
// failed, 2 on a usage error or when a validity guard marks the run
// invalid (no numbers are printed then).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"vqprobe/internal/trace"
)

func main() {
	runtime.GOMAXPROCS(1)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are one benchmark invocation's settings.
type options struct {
	workloads []workload
	seed      int64
	seconds   int
	trace     bool
	out       string
	sessions  int // training sessions; the request corpus is 2/5 of it
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wlName   = fs.String("workload", "all", "workload to run: all, interactive, bulk-wide, bulk-narrow or fleet-narrow")
		seed     = fs.Int64("seed", 1, "seed for the request sessions and the traffic drawn from them")
		seconds  = fs.Int("seconds", 10, "measured seconds per workload, after a warm-up")
		traced   = fs.Int("trace", 1, "1 also replays the requests in-process and reports per-layer metrics; 0 reports end-to-end metrics only")
		out      = fs.String("out", "", "output directory (default .bench_build/out in the repository)")
		sessions = fs.Int("sessions", 60, "training sessions to simulate; the held-out request corpus is 2/5 as many")
		cmp      = fs.Bool("compare", false, "compare the results.json files under two directories: vqbench -compare BASE_DIR NEW_DIR")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "vqbench: -compare takes two directories: BASE_DIR NEW_DIR")
			return 2
		}
		code, err := compare(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "vqbench:", err)
			return 2
		}
		return code
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traced == 1, out: *out, sessions: *sessions}
	for _, wl := range workloads {
		if *wlName == "all" || *wlName == wl.name {
			o.workloads = append(o.workloads, wl)
		}
	}
	switch {
	case len(o.workloads) == 0:
		fmt.Fprintf(stderr, "vqbench: unknown -workload %q\n", *wlName)
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintln(stderr, "vqbench: -trace must be 0 or 1")
		return 2
	case o.seconds < 1 || o.sessions < 10:
		fmt.Fprintln(stderr, "vqbench: -seconds must be at least 1 and -sessions at least 10")
		return 2
	}
	code, err := bench(ctx, o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "vqbench:", err)
	}
	return code
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome, as written to results.json.
type result struct {
	Workload   string           `json:"workload"`
	Valid      bool             `json:"valid"`
	Invalid    []string         `json:"invalid,omitempty"`
	Correct    bool             `json:"correct"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	Mismatched int64            `json:"mismatched"`
	Metrics    map[string]value `json:"metrics"`
}

// report is results.json.
type report struct {
	Seed      int64     `json:"seed"`
	Started   time.Time `json:"started"` // orders runs in time for compare mode's pairs
	Seconds   int       `json:"seconds"`
	Sessions  int       `json:"sessions"`
	Layout    layout    `json:"layout"`
	Workloads []result  `json:"workloads"`
}

func bench(ctx context.Context, o options, stdout, stderr io.Writer) (int, error) {
	started := time.Now()
	root, err := repoRoot()
	if err != nil {
		return 1, err
	}
	if o.out == "" {
		o.out = filepath.Join(root, ".bench_build", "out")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return 1, err
	}
	e, err := prepare(ctx, root)
	if err != nil {
		return 1, err
	}
	if e.speed, err = e.startProbes(); err != nil {
		return 1, err
	}
	defer e.speed.stop()
	var tr *trace.Tracer
	if o.trace {
		tr = trace.New(trace.Config{Capacity: 1 << 16})
	}
	reqCSV, err := e.requests(ctx, o)
	if err != nil {
		return 1, err
	}
	rep := report{Seed: o.seed, Started: started, Seconds: o.seconds, Sessions: o.sessions, Layout: e.lay}
	for _, wl := range o.workloads {
		res, err := e.runWorkload(ctx, wl, o, reqCSV, tr)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", wl.name, err)
		}
		rep.Workloads = append(rep.Workloads, *res)
	}
	if err := writeJSON(filepath.Join(o.out, "results.json"), rep); err != nil {
		return 1, err
	}
	if tr != nil {
		if err := writeTrace(filepath.Join(o.out, "layers.trace.json"), tr); err != nil {
			return 1, err
		}
	}

	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	invalid := false
	for _, r := range rep.Workloads {
		for _, why := range r.Invalid {
			fmt.Fprintf(stderr, "vqbench: %s: run invalid: %s\n", r.Workload, why)
		}
		invalid = invalid || !r.Valid
	}
	if invalid {
		return 2, nil
	}
	fmt.Fprintf(stdout, "vqbench seed %d, %ds measured per workload, %d CPUs (generator on %s, daemons on %s, pinned %t)\n",
		o.seed, o.seconds, e.lay.NProc, e.lay.Generator, e.lay.Daemons, e.lay.Pinned)
	for _, r := range rep.Workloads {
		printResult(stdout, r)
		last.Correct = last.Correct && r.Correct
		last.Attempted += r.Attempted
		last.Failed += r.Failed
		for _, d := range catalogue {
			v, ok := r.Metrics[d.name]
			if !ok || (d.kind == endToEnd) == o.trace || d.kind == extra {
				continue
			}
			name := d.name
			if len(rep.Workloads) > 1 {
				name = r.Workload + "/" + name
			}
			last.Metrics[name] = v
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !last.Correct {
		return 1, fmt.Errorf("%d of %d rows were not answered correctly", last.Failed, last.Attempted)
	}
	return 0, nil
}

// runWorkload sets the workload up, drives it, checks every answer and,
// when traced, replays its requests through each layer.
func (e *env) runWorkload(ctx context.Context, wl workload, o options, reqCSV string, tr *trace.Tracer) (*result, error) {
	dir := filepath.Join(o.out, wl.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fl, sts, err := e.setUpReps(ctx, wl, o, dir)
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	c, err := loadCorpus(filepath.Join(dir, "model.snap"), reqCSV, wl.narrow)
	if err != nil {
		return nil, err
	}
	g := &requestGen{c: c, seed: splitmix64(uint64(o.seed)), rows: wl.rows, explain: wl.explain}
	measure := time.Duration(o.seconds) * time.Second
	// Warm up before the window so connection set-up, the first GCs and
	// heap growth are over; in sizing, throughput settled within 1.5 s.
	warm := min(3*time.Second, measure*3/10)
	lr, err := runClosed(ctx, fl, g, connections(wl, e.lay.NProc), warm, measure)
	if err != nil {
		return nil, err
	}
	var rss int64
	for _, d := range fl.daemons {
		b, err := d.hwm()
		if err != nil {
			return nil, err
		}
		rss += b
	}
	fl.stop()
	speed, err := e.speed.trace()
	if err != nil {
		return nil, err
	}

	res := &result{Workload: wl.name, Attempted: lr.attempted, Failed: lr.failed + lr.failedOther,
		Mismatched: lr.mismatched, Metrics: map[string]value{}}
	res.Correct = res.Failed == 0
	res.Invalid = endToEndMetrics(res.Metrics, speed, sts, lr, rss)
	daemonMetrics(res.Metrics, fl, lr)
	if tr != nil {
		sp := tr.StartSpan("vqbench", "replay "+wl.name, 0)
		lay, err := replay(g, wl, tr, sp.ID())
		sp.End()
		if err != nil {
			return nil, err
		}
		for k, v := range lay.m {
			res.Metrics[k] = v
		}
		res.Metrics["process.overhead_ns_per_row"] = value{res.Metrics["process.cpu_ns_per_row"].Value - lay.top, "ns/row"}
	}
	res.Valid = len(res.Invalid) == 0
	return res, nil
}

// endToEndMetrics fills the user-visible metrics and the set-up ladder
// and returns the validity guards that failed. Times taken on the
// daemon CPUs are reported at the reference host speed (hostspeed.go);
// the ".raw" extras are the same numbers as measured.
func endToEndMetrics(m map[string]value, sp speedTrace, sts []setupStamps, lr *loadResult, rss int64) []string {
	var sim, train, ready, total, raw, load []float64
	for _, st := range sts {
		sim = append(sim, sp.refDuration(st.start, st.simulated).Seconds())
		train = append(train, sp.refDuration(st.simulated, st.trained).Seconds())
		ready = append(ready, sp.refDuration(st.trained, st.ready).Seconds())
		total = append(total, sp.refDuration(st.start, st.ready).Seconds())
		raw = append(raw, st.ready.Sub(st.start).Seconds())
		load = append(load, st.loadMS)
	}
	m["setup_s"] = value{median(total), "s"}
	m["setup_s.raw"] = value{median(raw), "s"}
	m["setup.simulate_s"] = value{median(sim), "s"}
	m["setup.train_s"] = value{median(train), "s"}
	m["setup.ready_s"] = value{median(ready), "s"}
	m["setup.snapshot_load_ms"] = value{median(load), "ms"}
	m["server_rss_mb"] = value{float64(rss) / (1 << 20), "MB"}
	if lr.attempted == 0 {
		return []string{"no request completed inside the measured window"}
	}
	m["error_ratio"] = value{float64(lr.failed) / float64(lr.attempted), "ratio"}
	m["latency_samples"] = value{float64(len(lr.answers)), "count"}

	n := max(1, int(lr.window/sliceLen))
	slow := sp.slowdowns(lr.opened, lr.window, n)
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	m["host.slowdown"] = value{median(append([]float64(nil), slow...)), "ratio"}
	rowsPerS, p50, p99, err := windowStats(lr.answers, lr.window, slow)
	rawRows, rawP50, rawP99, _ := windowStats(lr.answers, lr.window, ones) // the same error as above
	m["rows_per_s"] = value{rowsPerS, "rows/s"}
	m["p50_ms"] = value{p50, "ms"}
	m["p99_ms"] = value{p99, "ms"}
	m["rows_per_s.raw"] = value{rawRows, "rows/s"}
	m["p50_ms.raw"] = value{rawP50, "ms"}
	m["p99_ms.raw"] = value{rawP99, "ms"}
	if err != nil {
		return []string{err.Error()}
	}
	return nil
}

// vqserve's default -batch: the engine drains at most this many queued
// requests per wakeup.
const maxBatch = 32

// daemonMetrics fills the per-layer metrics read from the daemons over
// the measured window: /metrics counter deltas and /proc CPU time.
func daemonMetrics(m map[string]value, fl *fleet, lr *loadResult) {
	rows := float64(max(lr.attempted, 1))
	delta := func(role, base string, labels ...string) float64 {
		sum := 0.0
		for i, d := range fl.daemons {
			if d.role == role {
				sum += series(lr.after.metrics[i], base, labels...) - series(lr.before.metrics[i], base, labels...)
			}
		}
		return sum
	}
	cpu := func(role string) float64 {
		sum := 0.0
		for i, d := range fl.daemons {
			if role == "" || d.role == role {
				sum += float64(lr.after.cpu[i] - lr.before.cpu[i])
			}
		}
		return sum
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["serve.engine.batch_fill"] = value{ratio(delta("serve", "vqserve_batch_size_sum"), delta("serve", "vqserve_batch_size_count")) / maxBatch, "ratio"}
	m["serve.engine.queue_mean_ms"] = value{1e3 * ratio(delta("serve", "vqserve_stage_latency_seconds_sum", `stage="queue"`),
		delta("serve", "vqserve_stage_latency_seconds_count", `stage="queue"`)), "ms"}
	m["serve.cpu_ns_per_row"] = value{cpu("serve") / rows, "ns/row"}
	m["process.cpu_ns_per_row"] = value{cpu("") / rows, "ns/row"}
	m["serve.errors"] = value{delta("serve", "vqserve_errors_total"), "count"}
	m["serve.shed"] = value{delta("serve", "vqserve_shed_total"), "count"}
	m["serve.retries"] = value{delta("serve", "vqserve_retries_total"), "count"}
	if fl.front.role == "route" {
		m["route.cpu_ns_per_row"] = value{cpu("route") / rows, "ns/row"}
		m["route.failovers"] = value{delta("route", "vqroute_failovers_total"), "count"}
		m["route.shed"] = value{delta("route", "vqroute_shed_total"), "count"}
		m["route.sticky_ratio"] = value{1 - ratio(delta("route", "vqroute_replica_shed_total"), delta("route", "vqroute_rows_total")), "ratio"}
	}
}

// printResult prints one workload's metrics, one per line, in catalogue
// order, followed by the layer ladder when the run was traced.
func printResult(w io.Writer, r result) {
	fmt.Fprintf(w, "\n== %s: %d rows attempted, %d failed ==\n", r.Workload, r.Attempted, r.Failed)
	for _, d := range catalogue {
		if v, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(w, "%-14s %-34s %16.4f %s\n", r.Workload, d.name, v.Value, v.Unit)
		}
	}
	if _, ok := r.Metrics["c45.predict_ns_per_row"]; !ok {
		return
	}
	fmt.Fprintf(w, "layer ladder (self ns/row, cumulative ns/row):\n")
	cum := 0.0
	for _, name := range ladder {
		if _, routed := r.Metrics["route.cpu_ns_per_row"]; name == "route_ns_per_row" && !routed {
			continue // this workload's rows never cross a router
		}
		v := r.Metrics[name].Value
		cum += v
		fmt.Fprintf(w, "  %-30s %12.1f %12.1f\n", name, v, cum)
	}
	fmt.Fprintf(w, "  %-30s %12.1f\n", "daemon cpu (process.cpu)", r.Metrics["process.cpu_ns_per_row"].Value)
}

// ladder is the serving path bottom up; each entry is a layer's self
// time, so the running sum is the in-process cost of a row at that
// layer. serve.explain is left out: it is paid only by explain rows, and
// serve.engine already carries it for them.
var ladder = []string{
	"c45.predict_ns_per_row", "serve.normalize_ns_per_row", "serve.engine_ns_per_row",
	"serve.http_ns_per_row", "route_ns_per_row",
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeTrace(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tr.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// metricKind says where a metric is reported.
type metricKind int

const (
	endToEnd metricKind = iota // BENCHMARK.json end_to_end: printed with -trace 0
	perLayer                   // BENCHMARK.json per_layer: printed with -trace 1
	extra                      // results.json and the human-readable lines only
)

type metricDef struct {
	name string
	kind metricKind
}

// catalogue orders every metric vqbench reports. Names and units of the
// endToEnd and perLayer entries match BENCHMARK.json (TestCatalogue).
var catalogue = []metricDef{
	{"setup_s", endToEnd},
	{"rows_per_s", endToEnd},
	{"p50_ms", endToEnd},
	{"p99_ms", endToEnd},
	{"server_rss_mb", endToEnd},
	{"error_ratio", extra},
	{"latency_samples", extra},
	{"host.slowdown", extra},
	{"setup_s.raw", extra},
	{"rows_per_s.raw", extra},
	{"p50_ms.raw", extra},
	{"p99_ms.raw", extra},
	{"setup.simulate_s", perLayer},
	{"setup.train_s", perLayer},
	{"setup.ready_s", perLayer},
	{"setup.snapshot_load_ms", perLayer},
	{"c45.predict_ns_per_row", perLayer},
	{"serve.normalize_ns_per_row", perLayer},
	{"serve.explain_ns_per_row", perLayer},
	{"serve.engine_ns_per_row", perLayer},
	{"serve.engine.batch_fill", perLayer},
	{"serve.engine.queue_mean_ms", perLayer},
	{"serve.http_ns_per_row", perLayer},
	{"serve.http.allocs_per_row", perLayer},
	{"serve.http.alloc_bytes_per_row", perLayer},
	{"serve.http.req_bytes_per_row", perLayer},
	{"serve.http.resp_bytes_per_row", perLayer},
	{"route_ns_per_row", perLayer},
	{"serve.cpu_ns_per_row", perLayer},
	{"process.cpu_ns_per_row", perLayer},
	{"process.overhead_ns_per_row", perLayer},
	{"trace.overhead_ratio", perLayer},
	{"route.cpu_ns_per_row", extra},
	{"route.sticky_ratio", extra},
	{"route.failovers", extra},
	{"route.shed", extra},
	{"serve.errors", extra},
	{"serve.shed", extra},
	{"serve.retries", extra},
}
