package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// trainSeed seeds the training simulation of every run. The served
// model is part of the system under test, not of its input: a model
// trained per -seed changes the schema width (and so the cost of a
// narrow row) from seed to seed, which would swamp the run-to-run spread
// the bounds in BENCHMARK.json are set against. -seed varies only the
// request sessions and the traffic drawn from them.
const trainSeed = 8

// setupReps is how many times each workload runs its whole set-up; the
// set-up metrics report the median.
const setupReps = 3

// repoRoot walks up from the working directory to the vqprobe module
// root (skipping vqbench's own go.mod).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && modulePath(data) == "vqprobe" {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("vqbench: no vqprobe go.mod above the working directory; run from a vqprobe checkout")
		}
		dir = parent
	}
}

// modulePath returns the module directive of a go.mod file.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// layout is the CPU assignment of a run. Numbers taken on different
// core counts or layouts are not comparable, so results.json records it.
type layout struct {
	NProc     int    `json:"nproc"`
	Generator string `json:"generator_cpus"`
	Daemons   string `json:"daemon_cpus"`
	Pinned    bool   `json:"pinned"`
}

// env is what every workload of one vqbench invocation shares: the
// repository, the daemon binaries and the CPU layout.
type env struct {
	bin   string
	lay   layout
	speed *hostSpeed // the daemon CPUs' probes, running for the whole invocation
}

// prepare builds the daemons and cpuprobe into .bench_build/bin, then
// pins this process (the load generator and the in-process replay) to
// the first allowed CPU. The daemons, the set-up tools and the probes
// later run on the remaining CPUs, so the generator never competes with
// the server it measures. With a single CPU nothing is pinned and the
// layout says so.
func prepare(ctx context.Context, root string) (*env, error) {
	e := &env{bin: filepath.Join(root, ".bench_build", "bin")}
	for _, b := range []struct {
		dir  string
		pkgs []string
	}{
		{root, []string{"./cmd/vqserve", "./cmd/vqroute", "./cmd/vqlab", "./cmd/vqtrain"}},
		{filepath.Join(root, "cmd", "vqbench"), []string{"./cpuprobe"}},
	} {
		build := exec.CommandContext(ctx, "go", append([]string{"build", "-o", e.bin + string(filepath.Separator)}, b.pkgs...)...)
		build.Dir = b.dir
		if msg, err := build.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("building %s: %w\n%s", strings.Join(b.pkgs, " "), err, msg)
		}
	}
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	all := joinCPUs(cpus)
	e.lay = layout{NProc: len(cpus), Generator: all, Daemons: all}
	if _, err := exec.LookPath("taskset"); err != nil || len(cpus) < 2 {
		return e, nil
	}
	pin := exec.CommandContext(ctx, "taskset", "-a", "-p", "-c", strconv.Itoa(cpus[0]), strconv.Itoa(os.Getpid()))
	if msg, err := pin.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("pinning the generator: %w\n%s", err, msg)
	}
	e.lay = layout{NProc: len(cpus), Generator: strconv.Itoa(cpus[0]), Daemons: joinCPUs(cpus[1:]), Pinned: true}
	return e, nil
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
				return parseCPUList(rest)
			}
		}
	}
	cpus := make([]int, runtime.NumCPU())
	for i := range cpus {
		cpus[i] = i
	}
	return cpus, nil
}

func joinCPUs(cpus []int) string {
	s := make([]string, len(cpus))
	for i, c := range cpus {
		s[i] = strconv.Itoa(c)
	}
	return strings.Join(s, ",")
}

// command runs one of the built binaries on the given CPUs.
func (e *env) command(ctx context.Context, cpus, name string, args ...string) *exec.Cmd {
	bin := filepath.Join(e.bin, name)
	if !e.lay.Pinned {
		return exec.CommandContext(ctx, bin, args...)
	}
	return exec.CommandContext(ctx, "taskset", append([]string{"-c", cpus, bin}, args...)...)
}

// tool runs a set-up tool to completion on the daemon CPUs, where the
// probes follow the host's speed.
func (e *env) tool(ctx context.Context, name string, args ...string) error {
	cmd := e.command(ctx, e.lay.Daemons, name, args...)
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), err, msg)
	}
	return nil
}

// daemon is one running vqserve or vqroute process.
type daemon struct {
	role string // "serve" or "route"
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed when the process has exited
	log  string
}

// start launches a daemon on the daemon CPUs. Its lifetime is not tied
// to ctx: stop ends it, so a canceled run still drains it cleanly.
func (e *env) start(role, name, logPath string, args ...string) (*daemon, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	cmd := e.command(context.Background(), e.lay.Daemons, name, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{role: role, cmd: cmd, done: make(chan struct{}), log: logPath}
	go func() {
		// The exit status is uninteresting: stop sends SIGTERM, and a
		// daemon that dies early fails its health check instead.
		_ = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// stop terminates the daemon gracefully and waits for it to exit.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// pid is the daemon's process ID (taskset execs in place, so it is the
// daemon's own).
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuNS is the daemon's user+system CPU time so far.
func (d *daemon) cpuNS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, err
	}
	return parseStat(string(b))
}

// hwm is the daemon's peak resident set in bytes.
func (d *daemon) hwm() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	return parseHWM(string(b))
}

// get fetches one path from the daemon.
func (d *daemon) get(ctx context.Context, path string) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// metrics scrapes and parses the daemon's /metrics.
func (d *daemon) metrics(ctx context.Context) (map[string]float64, error) {
	code, body, err := d.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics answered HTTP %d", d.url, code)
	}
	return parseProm(bytes.NewReader(body))
}

// waitHealthy polls /healthz until it answers 200 and returns the body.
func (d *daemon) waitHealthy(ctx context.Context) ([]byte, error) {
	deadline := time.Now().Add(20 * time.Second)
	for {
		code, body, err := d.get(ctx, "/healthz")
		if err == nil && code == http.StatusOK {
			return body, nil
		}
		select {
		case <-d.done:
			tail, _ := os.ReadFile(d.log)
			return nil, fmt.Errorf("%s exited before becoming healthy:\n%s", d.url, tail)
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s not healthy after 20s (last: HTTP %d, %v)", d.url, code, err)
		}
	}
}

// freeAddr reserves a loopback port and releases it for a daemon.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// fleet is the set of daemons serving one workload.
type fleet struct {
	daemons []*daemon
	front   *daemon // where the load goes: the router, or the only replica
}

func (f *fleet) stop() {
	for _, d := range f.daemons {
		d.stop()
	}
}

// setupStamps are the instants one set-up started and finished each
// stage: simulate, train, daemons ready.
type setupStamps struct {
	start, simulated, trained, ready time.Time
	loadMS                           float64 // vqserve's snapshot load time, from /healthz
}

// requests simulates the held-out request sessions from the seed: the
// benchmark's input, made once per invocation and not part of set-up.
func (e *env) requests(ctx context.Context, o options) (string, error) {
	path := filepath.Join(o.out, "requests.csv")
	return path, e.tool(ctx, "vqlab", "-sessions", strconv.Itoa(requestSessions(o.sessions)),
		"-seed", strconv.FormatInt(o.seed+1, 10), "-out", path)
}

// setUp runs the pipeline a user runs: simulate the training sessions,
// train and emit the snapshot, then start the workload's daemons and
// wait until every /healthz answers 200.
func (e *env) setUp(ctx context.Context, wl workload, o options, dir string) (*fleet, setupStamps, error) {
	st := setupStamps{start: time.Now()}
	if err := e.tool(ctx, "vqlab", "-sessions", strconv.Itoa(o.sessions), "-seed", strconv.Itoa(trainSeed),
		"-out", filepath.Join(dir, "train.csv")); err != nil {
		return nil, st, err
	}
	st.simulated = time.Now()
	if err := e.tool(ctx, "vqtrain", "-in", filepath.Join(dir, "train.csv"), "-out", filepath.Join(dir, "model.json"),
		"-emit-snapshot", filepath.Join(dir, "model.snap")); err != nil {
		return nil, st, err
	}
	st.trained = time.Now()
	fl, loadMS, err := e.startFleet(ctx, wl, dir)
	if err != nil {
		return nil, st, err
	}
	st.ready, st.loadMS = time.Now(), loadMS
	return fl, st, nil
}

// requestSessions is the held-out request corpus size for a training
// set of n sessions.
func requestSessions(n int) int { return max(4, n*2/5) }

// startFleet starts the workload's replicas (and router) and waits for
// all of them to be healthy. It returns the replicas' median snapshot
// load time.
func (e *env) startFleet(ctx context.Context, wl workload, dir string) (*fleet, float64, error) {
	fl := &fleet{}
	var urls []string
	var loads []float64
	fail := func(err error) (*fleet, float64, error) {
		fl.stop()
		return nil, 0, err
	}
	for i := 0; i < wl.replicas; i++ {
		addr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		d, err := e.start("serve", "vqserve", filepath.Join(dir, fmt.Sprintf("vqserve-%d.log", i)),
			"-model", filepath.Join(dir, "model.snap"), "-addr", addr)
		if err != nil {
			return fail(err)
		}
		d.url = "http://" + addr
		fl.daemons = append(fl.daemons, d)
		urls = append(urls, d.url)
	}
	for _, d := range fl.daemons {
		body, err := d.waitHealthy(ctx)
		if err != nil {
			return fail(err)
		}
		var h struct {
			Model struct {
				LoadMS float64 `json:"load_ms"`
			} `json:"model"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			return fail(fmt.Errorf("%s/healthz: %w", d.url, err))
		}
		loads = append(loads, h.Model.LoadMS)
	}
	fl.front = fl.daemons[0]
	if wl.router {
		addr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		r, err := e.start("route", "vqroute", filepath.Join(dir, "vqroute.log"),
			"-replicas", strings.Join(urls, ","), "-addr", addr)
		if err != nil {
			return fail(err)
		}
		r.url = "http://" + addr
		fl.daemons = append(fl.daemons, r)
		if _, err := r.waitHealthy(ctx); err != nil {
			return fail(err)
		}
		fl.front = r
	}
	return fl, median(loads), nil
}

// setUpReps runs the set-up setupReps times, keeping the last fleet
// running, and returns every set-up's stamps.
func (e *env) setUpReps(ctx context.Context, wl workload, o options, dir string) (*fleet, []setupStamps, error) {
	var sts []setupStamps
	var fl *fleet
	for rep := 0; rep < setupReps; rep++ {
		if fl != nil {
			fl.stop()
		}
		f, st, err := e.setUp(ctx, wl, o, dir)
		if err != nil {
			return nil, nil, err
		}
		fl = f
		sts = append(sts, st)
	}
	return fl, sts, nil
}
