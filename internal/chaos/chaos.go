// Package chaos is the deterministic fault-injection harness for the
// serving and simulation stacks. Every scenario is driven by a single
// seed: the harness derives all fault schedules (what breaks, when, and
// how badly) from a seeded PRNG, records what happened in an ordered
// event log, and stamps every failure with the seed so any red run can
// be replayed exactly with `go test -run <Test> -chaos.seed=<seed>`
// (or CHAOS_SEED=<seed>).
//
// The scenarios live in serve_scenarios.go (the online diagnosis
// engine: malformed ingest, non-finite features, queue saturation,
// reload storms, slow clients, worker panics, clock skew) and
// sim_scenarios.go (the virtual-clock network/player stack: flaky
// links, device stress bursts, mid-stream transport loss). See
// docs/ROBUSTNESS.md for the fault catalog and the bugs this harness
// originally surfaced.
package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vqprobe/internal/features"
	"vqprobe/internal/metrics"
	"vqprobe/internal/ml"
	"vqprobe/internal/ml/c45"
	"vqprobe/internal/serve"
)

// DefaultSeed is used when no seed override is supplied. Any fixed
// value works — determinism, not randomness, is the point.
const DefaultSeed = 7

// Harness owns one scenario run: the seed, the PRNG every scenario
// must draw from, and the ordered event log used to prove determinism
// (two runs with the same seed must produce byte-identical logs).
type Harness struct {
	TB   testing.TB
	Seed int64
	Rand *rand.Rand

	mu  sync.Mutex
	log []string
}

// New builds a harness around tb. The seed is announced up front so a
// failing CI run is reproducible from its output alone.
func New(tb testing.TB, seed int64) *Harness {
	tb.Logf("chaos: seed=%d (set CHAOS_SEED=%d to reproduce)", seed, seed)
	return &Harness{TB: tb, Seed: seed, Rand: rand.New(rand.NewSource(seed))}
}

// Logf appends one line to the event log. Only record facts that are
// functions of the seed and the virtual clock — never wall-clock
// durations, goroutine counts, or map-iteration artifacts — so the log
// stays byte-identical across same-seed runs.
func (h *Harness) Logf(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.log = append(h.log, fmt.Sprintf(format, args...))
}

// EventLog returns the recorded events, one per line.
func (h *Harness) EventLog() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return strings.Join(h.log, "\n")
}

// Failf reports a test failure stamped with the reproduction seed.
func (h *Harness) Failf(format string, args ...any) {
	h.TB.Helper()
	h.TB.Errorf("chaos seed %d: %s", h.Seed, fmt.Sprintf(format, args...))
}

// Fatalf is Failf but stops the scenario.
func (h *Harness) Fatalf(format string, args ...any) {
	h.TB.Helper()
	h.TB.Fatalf("chaos seed %d: %s", h.Seed, fmt.Sprintf(format, args...))
}

// CheckCounters asserts the engine's request-accounting invariant:
// after a drain, everything accepted into the pipeline was answered.
// (Shed requests never enter the pipeline and are counted separately.)
func (h *Harness) CheckCounters(e *serve.Engine) {
	h.TB.Helper()
	submitted, requests, errs, shed := e.Counters()
	if submitted != requests+errs {
		h.Failf("request accounting imbalance: submitted=%d classified=%d errors=%d shed=%d",
			submitted, requests, errs, shed)
	}
}

// SettleGoroutines waits for the goroutine count to fall back to the
// baseline captured before the scenario, then flags anything left over
// as a leak. The grace period absorbs runtime/netpoll stragglers.
func (h *Harness) SettleGoroutines(baseline int) {
	h.TB.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			h.Failf("goroutine leak: %d alive, baseline %d\n%s", n, baseline, buf)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Fingerprint hashes an ordered result list (IDs, classes, errors) so
// scenarios can assert byte-identical predictions before and after a
// chaos run without storing full outputs in the event log.
func Fingerprint(results []serve.Result) string {
	hash := fnv.New64a()
	for _, r := range results {
		fmt.Fprintf(hash, "%s|%s|%s|%s|%s\n", r.ID, r.Class, r.Severity, r.Cause, r.Err)
	}
	return fmt.Sprintf("%016x", hash.Sum64())
}

// BuildModel trains the small fully separable model the serve scenarios
// run against: good (rtt <= 100), lan_cong_mild (rtt > 100, loss <= 5),
// severeClass (rtt > 100, loss > 5). severeClass parameterizes the
// third label so reload scenarios can tell two snapshots apart.
func BuildModel(tb testing.TB, severeClass string) *serve.Model {
	tb.Helper()
	return BuildModelOn(tb, "mobile", severeClass)
}

// BuildModelOn is BuildModel over the features <vp>.rtt and <vp>.loss,
// so two snapshots can read different keys.
func BuildModelOn(tb testing.TB, vp, severeClass string) *serve.Model {
	tb.Helper()
	var insts []ml.Instance
	for rtt := 10.0; rtt <= 200; rtt += 10 {
		for loss := 0.0; loss <= 10; loss++ {
			cls := "good"
			if rtt > 100 {
				if loss > 5 {
					cls = severeClass
				} else {
					cls = "lan_cong_mild"
				}
			}
			insts = append(insts, ml.Instance{
				Features: metrics.Vector{vp + ".rtt": rtt, vp + ".loss": loss},
				Class:    cls,
			})
		}
	}
	d := ml.NewDataset(insts)
	constructed, norm := features.Construct(d)
	tree := c45.Default().TrainTree(constructed)
	ct, err := c45.Compile(tree)
	if err != nil {
		tb.Fatal(err)
	}
	return serve.NewModel("exact", norm, ct)
}

// Vec builds the two-feature vector BuildModel's tree splits on.
func Vec(rtt, loss float64) map[string]float64 {
	return map[string]float64{"mobile.rtt": rtt, "mobile.loss": loss}
}

// WideVec is a full 358-feature row: Vec's mobile features, the same
// values on the server vantage point (BuildModelOn(tb, "server", …)),
// and 354 router features that neither model reads.
func WideVec(rtt, loss float64) map[string]float64 {
	fv := Vec(rtt, loss)
	fv["server.rtt"], fv["server.loss"] = rtt, loss
	for i := 0; i < 354; i++ {
		fv[fmt.Sprintf("router.f%03d", i)] = float64(i)
	}
	return fv
}
