// Package route is the fleet-mode router tier: one vqroute process
// fronts N vqserve replicas, splitting each /diagnose NDJSON body into
// contiguous line ranges, one per replica with room, without parsing
// a line (a row is one whole session's features, so no row needs a
// particular replica), managing replica health (poll /healthz, eject
// on repeated failure, hold traffic shifts and rollouts when a replica
// reports degraded), coordinating staged model rollouts (canary →
// verify model hash → fan out), and propagating backpressure between
// tiers (a saturated fleet answers 429 + Retry-After instead of
// retrying into overload).
//
// The package is deliberately clock-free: all wall time comes through
// Config.Clock and all periodic work through explicit PollHealth calls,
// so cmd/vqroute owns the real clock and tests drive the router
// deterministically. cmd/vqroute is the thin daemon over this package;
// docs/ROUTING.md describes the topology and protocols.
package route

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vqprobe/internal/metrics"
)

// State is one replica's routing disposition.
type State int32

const (
	// Healthy replicas receive ranges and serve as failover targets
	// for failed peers.
	Healthy State = iota
	// Degraded replicas are alive but self-reported degraded (a failed
	// model reload: serving from the last-good snapshot). They still
	// answer correctly, so they receive ranges when no Healthy replica
	// has room, but never failover traffic, and any staged rollout
	// holds until they recover.
	Degraded
	// Down replicas failed EjectAfter consecutive health probes (or
	// proxy attempts) and receive no traffic until a probe succeeds.
	Down
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Down:
		return "down"
	}
	return "unknown"
}

// Config tunes the router. Replicas is required; everything else has a
// serviceable default.
type Config struct {
	// Replicas is the base URL of every vqserve replica, e.g.
	// "http://127.0.0.1:8701". Order is the staged-rollout order.
	Replicas []string
	// Client performs all upstream HTTP. Nil selects a zero-value
	// client (no global timeout: /diagnose responses stream, and
	// per-probe budgets come from contexts).
	Client *http.Client
	// Registry receives the router's metrics; one is created if nil.
	Registry *metrics.Registry
	// Logger, when set, records state transitions, failovers and
	// rollout stages. Nil disables logging.
	Logger *slog.Logger
	// Clock supplies wall time for the proxy latency histogram —
	// typically time.Now, injected so the package itself never reads
	// the clock. Nil disables latency observation.
	Clock func() time.Time
	// EjectAfter is how many consecutive failed probes (health polls or
	// proxy attempts) eject a replica to Down. Zero selects 3.
	EjectAfter int
	// MaxInflight caps outstanding proxied rows per replica: a range
	// holds at most its replica's room under it, and rows beyond the
	// room of the replicas a body is split over are shed at the
	// router. Zero selects 1024.
	MaxInflight int
	// RetryAfter is the client backoff hint on 429 responses and shed
	// rows. Zero selects 1s.
	RetryAfter time.Duration
	// HealthTimeout bounds one /healthz probe. Zero selects 2s.
	HealthTimeout time.Duration
	// CanaryBody is the NDJSON batch sent through a freshly reloaded
	// replica before a rollout proceeds. Empty selects a single minimal
	// row.
	CanaryBody string
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 1024
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.CanaryBody == "" {
		c.CanaryBody = `{"id":"vqroute-canary","features":{}}` + "\n"
	}
	return c
}

// replica is one upstream vqserve process as the router sees it.
type replica struct {
	url string
	idx int

	state atomic.Int32 // State; hot-path reads skip the mutex

	mu          sync.Mutex
	consecFails int
	modelHash   string
	lastErr     string

	inflight atomic.Int64

	healthyG  *metrics.Gauge
	degradedG *metrics.Gauge
	inflightG *metrics.Gauge
	rowsC     *metrics.Counter
	shedC     *metrics.Counter
	errsC     *metrics.Counter
}

// ReplicaStatus is one replica's state snapshot for /healthz and logs.
type ReplicaStatus struct {
	URL       string `json:"url"`
	State     string `json:"state"`
	ModelHash string `json:"model_hash,omitempty"`
	LastError string `json:"last_error,omitempty"`
	Inflight  int64  `json:"inflight"`
}

// Router is the fleet router. Create with New, poll replica health with
// PollHealth (cmd/vqroute runs it on a ticker), serve with Handler, and
// coordinate model pushes with Rollout.
type Router struct {
	cfg    Config
	client *http.Client
	reg    *metrics.Registry
	log    *slog.Logger
	reps   []*replica

	rolloutMu sync.Mutex // one staged rollout at a time

	obs routerObs
}

// routerObs bundles the router-level metric handles; names are
// documented in docs/ROUTING.md.
type routerObs struct {
	requests, rows, shed   *metrics.Counter
	failovers, healthPolls *metrics.Counter
	rollouts, rolloutsHeld *metrics.Counter
	proxyHist              *metrics.Histogram
}

// New builds a router over the configured replica set. The replica list
// is fixed for the router's lifetime: fleet membership changes are a
// restart.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("route: no replicas configured")
	}
	rt := &Router{cfg: cfg, client: cfg.Client, reg: cfg.Registry, log: cfg.Logger}
	for i, u := range cfg.Replicas {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("route: replica %d: empty URL", i)
		}
		rep := &replica{
			url:       u,
			idx:       i,
			healthyG:  rt.reg.Gauge(fmt.Sprintf("vqroute_replica_healthy{replica=%q}", u), "replica is healthy and routable (1 = healthy)"),
			degradedG: rt.reg.Gauge(fmt.Sprintf("vqroute_replica_degraded{replica=%q}", u), "replica self-reports degraded (serving last-good model)"),
			inflightG: rt.reg.Gauge(fmt.Sprintf("vqroute_replica_inflight{replica=%q}", u), "rows currently proxied to this replica"),
			rowsC:     rt.reg.Counter(fmt.Sprintf("vqroute_replica_rows_total{replica=%q}", u), "rows answered by this replica"),
			shedC:     rt.reg.Counter(fmt.Sprintf("vqroute_replica_shed_total{replica=%q}", u), "rows of this replica's failed range shed because no other replica could take them"),
			errsC:     rt.reg.Counter(fmt.Sprintf("vqroute_replica_errors_total{replica=%q}", u), "transport or protocol failures against this replica"),
		}
		// Replicas start healthy: the first poll corrects optimism, and
		// starting pessimistic would black-hole traffic until it runs.
		rep.healthyG.Set(1)
		rt.reps = append(rt.reps, rep)
	}
	rt.obs = routerObs{
		requests:     rt.reg.Counter("vqroute_requests_total", "proxied /diagnose requests"),
		rows:         rt.reg.Counter("vqroute_rows_total", "non-blank NDJSON lines accepted for routing"),
		shed:         rt.reg.Counter("vqroute_shed_total", "rows shed at the router (no replica with capacity)"),
		failovers:    rt.reg.Counter("vqroute_failovers_total", "ranges re-routed after a replica failure"),
		healthPolls:  rt.reg.Counter("vqroute_health_polls_total", "completed health sweeps"),
		rollouts:     rt.reg.Counter("vqroute_rollouts_total", "staged rollouts completed"),
		rolloutsHeld: rt.reg.Counter("vqroute_rollouts_held_total", "staged rollouts held (degraded replica, hash mismatch, or canary failure)"),
		proxyHist: rt.reg.Histogram("vqroute_proxy_latency_seconds", "upstream sub-batch round-trip latency",
			metrics.LatencyBuckets),
	}
	return rt, nil
}

// Registry returns the router's metrics registry.
func (rt *Router) Registry() *metrics.Registry { return rt.reg }

// Statuses reports every replica's current state, in config order.
func (rt *Router) Statuses() []ReplicaStatus {
	out := make([]ReplicaStatus, len(rt.reps))
	for i, rep := range rt.reps {
		rep.mu.Lock()
		out[i] = ReplicaStatus{
			URL:       rep.url,
			State:     State(rep.state.Load()).String(),
			ModelHash: rep.modelHash,
			LastError: rep.lastErr,
			Inflight:  rep.inflight.Load(),
		}
		rep.mu.Unlock()
	}
	return out
}

// logf emits one structured log line when a logger is configured.
func (rt *Router) logf(msg string, args ...any) {
	if rt.log != nil {
		rt.log.Info(msg, args...)
	}
}

// setState applies a state transition and its gauge updates; callers
// hold rep.mu.
func (rt *Router) setState(rep *replica, s State, why string) {
	old := State(rep.state.Swap(int32(s)))
	if s == Healthy {
		rep.healthyG.Set(1)
	} else {
		rep.healthyG.Set(0)
	}
	if s == Degraded {
		rep.degradedG.Set(1)
	} else {
		rep.degradedG.Set(0)
	}
	if old != s {
		rt.logf("replica state change", "replica", rep.url, "from", old.String(), "to", s.String(), "why", why)
	}
}

// noteFailure records one failed probe or proxy attempt; EjectAfter
// consecutive failures eject the replica.
func (rt *Router) noteFailure(rep *replica, why string) {
	rep.errsC.Inc()
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.consecFails++
	rep.lastErr = why
	if rep.consecFails >= rt.cfg.EjectAfter && State(rep.state.Load()) != Down {
		rt.setState(rep, Down, fmt.Sprintf("%d consecutive failures: %s", rep.consecFails, why))
	}
}

// noteHealthy records one successful probe reporting status "ok".
func (rt *Router) noteHealthy(rep *replica, modelHash string) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.consecFails = 0
	rep.lastErr = ""
	rep.modelHash = modelHash
	rt.setState(rep, Healthy, "healthz ok")
}

// noteDegraded records a probe reporting status "degraded": alive and
// serving (from the last-good model), but holding rollouts.
func (rt *Router) noteDegraded(rep *replica, modelHash, why string) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.consecFails = 0
	rep.lastErr = why
	if modelHash != "" {
		rep.modelHash = modelHash
	}
	rt.setState(rep, Degraded, why)
}

// noteServed resets the failure streak after rows round-tripped
// cleanly — a successful proxy is as good a liveness signal as a poll.
func (rt *Router) noteServed(rep *replica, rows int) {
	rep.rowsC.Add(uint64(rows))
	rep.mu.Lock()
	rep.consecFails = 0
	rep.mu.Unlock()
}

// routable says whether the replica may receive traffic at all.
func (rep *replica) routable() bool { return State(rep.state.Load()) != Down }

// cand is one replica offered a range: its index, its room under
// MaxInflight and the rows it is given.
type cand struct{ idx, room, rows int }

// pick appends the replicas a body's ranges go to: every Healthy
// replica with room, or, when none has any, every Degraded one with
// room. They come fewest inflight rows first, ties in config order.
func (rt *Router) pick(cands []cand) []cand {
	for _, want := range [...]State{Healthy, Degraded} {
		for i, rep := range rt.reps {
			if room := rt.cfg.MaxInflight - int(rep.inflight.Load()); room > 0 && State(rep.state.Load()) == want {
				cands = append(cands, cand{idx: i, room: room})
			}
		}
		if len(cands) > 0 {
			break
		}
	}
	slices.SortStableFunc(cands, func(a, b cand) int { return b.room - a.room })
	return cands
}

// failoverTarget picks where a failed range's unserved rows go: the
// least-loaded Healthy replica not yet tried with room for them all,
// or -1 when there is none. A Degraded replica is never a failover
// target.
func (rt *Router) failoverTarget(rows int, tried []bool) int {
	for _, c := range rt.pick(nil) {
		if !tried[c.idx] && c.room >= rows && State(rt.reps[c.idx].state.Load()) == Healthy {
			return c.idx
		}
	}
	return -1
}
