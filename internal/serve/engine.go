// Package serve is the online diagnosis engine: the deployable,
// always-on form of the paper's diagnostic tool. It classifies live
// session records through an immutable compiled-model snapshot behind a
// sharded, batching ingest pipeline with backpressure, supports hot
// model reload without dropping in-flight requests, and exposes
// stdlib-only observability (Prometheus-text /metrics, /healthz, and an
// NDJSON /diagnose endpoint). cmd/vqserve is a thin daemon over this
// package; vqprobe.NewEngine is the public entry point.
package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vqprobe/internal/features"
	"vqprobe/internal/metrics"
	"vqprobe/internal/ml"
	"vqprobe/internal/ml/c45"
	"vqprobe/internal/reqscan"
	"vqprobe/internal/trace"
)

// Model is an immutable serving snapshot: the trained feature-
// construction scales plus the compiled decision tree. Engines swap
// whole snapshots atomically on reload, so a request sees exactly one
// consistent model.
type Model struct {
	task string
	norm *features.Normalizer
	bp   c45.BatchPredictor
	// plan holds, per schema row, the slots of its feature and divisor
	// and its construction transform, so normalization touches only the
	// features the model consults instead of scanning the full raw
	// vector.
	plan []rowPlan
	// names are the raw features fillRow reads, the plan's names and
	// their divisors, one per slot: a row's raw values sit in a
	// []float64 of len(names), NaN where absent. keys is the same set
	// for /diagnose, which decodes only these, straight into slots.
	names []string
	keys  *reqscan.Keys
	info  ModelInfo
}

// ModelInfo describes the serving snapshot for /healthz and the
// vqserve_model_* gauges.
type ModelInfo struct {
	// Nodes is the compiled tree's node count.
	Nodes int `json:"nodes"`
	// SnapshotHash is the content hash of the model file the snapshot
	// was loaded from; empty when the model was built in-process.
	SnapshotHash string `json:"snapshot_hash,omitempty"`
	// LoadMillis is how long loading + compiling the model took.
	LoadMillis float64 `json:"load_ms,omitempty"`
}

// rowPlan is the precomputed normalization of one schema row.
type rowPlan struct {
	slot    int // the feature's raw value slot
	divisor int // slot of the per-instance divisor feature, -1 for none
	scale   float64
	dropped bool
}

// NewModel assembles a serving snapshot around a compiled predictor,
// in service a *c45.CompiledTree.
func NewModel(task string, norm *features.Normalizer, bp c45.BatchPredictor) *Model {
	if norm == nil {
		norm = features.NormalizerFromScales(nil)
	}
	m := &Model{task: task, norm: norm, bp: bp, info: ModelInfo{Nodes: bp.Nodes()}}
	slots := map[string]int{}
	slot := func(name string) int {
		i, ok := slots[name]
		if !ok {
			i = len(m.names)
			slots[name] = i
			m.names = append(m.names, name)
		}
		return i
	}
	for _, f := range bp.Schema() {
		p := norm.Plan(f)
		rp := rowPlan{slot: slot(f), divisor: -1, scale: p.Scale, dropped: p.Dropped}
		if p.Divisor != "" {
			rp.divisor = slot(p.Divisor)
		}
		m.plan = append(m.plan, rp)
	}
	m.keys = reqscan.NewKeys(m.names...) // distinct, so slot i is names[i]
	return m
}

// SetProvenance records where the snapshot came from: the content hash
// of the model file and the measured load+compile duration. Call it
// before handing the model to an engine — a Model is immutable once
// serving.
func (m *Model) SetProvenance(hash string, load time.Duration) {
	m.info.SnapshotHash = hash
	m.info.LoadMillis = float64(load.Nanoseconds()) / 1e6
}

// Info returns the snapshot's descriptive summary.
func (m *Model) Info() ModelInfo { return m.info }

// gather lays a raw feature map out in the model's slots, NaN where a
// feature is absent, as /diagnose decodes a line. A NaN in fv reads as
// absent; fillRow makes both ml.Missing.
func (m *Model) gather(fv map[string]float64, vals []float64) {
	for i, name := range m.names {
		v, ok := fv[name]
		if !ok {
			v = math.NaN()
		}
		vals[i] = v
	}
}

// fillRow normalizes a row's raw slot values (NaN = absent) directly
// into schema row form, bit-identical to Normalizer.ApplyVector
// followed by CompiledTree.FillRow but touching only schema features.
// Reading divisors from the raw values is safe because divisor
// features (tcp_total_*, tcp_duration_s) are never themselves scaled,
// dropped or ratio-normalized by construction.
func (m *Model) fillRow(vals, row []float64) {
	for i := range m.plan {
		p := &m.plan[i]
		v := vals[p.slot]
		if p.dropped || math.IsNaN(v) {
			row[i] = ml.Missing
			continue
		}
		if p.scale > 0 {
			v = v / p.scale
		}
		if p.divisor >= 0 {
			if tot := vals[p.divisor]; tot > 0 { // false for an absent (NaN) divisor
				v = v / tot
			}
		}
		row[i] = v
	}
}

// rowOf normalizes a raw feature map into a fresh schema row.
func (m *Model) rowOf(fv metrics.Vector) []float64 {
	buf := make([]float64, len(m.names)+len(m.plan))
	vals, row := buf[:len(m.names)], buf[len(m.names):]
	m.gather(fv, vals)
	m.fillRow(vals, row)
	return row
}

// Task returns the diagnosis task the model was trained for.
func (m *Model) Task() string { return m.task }

// Schema returns the feature names the model consults (do not mutate).
func (m *Model) Schema() []string { return m.bp.Schema() }

// Classes returns the class labels the model can emit (do not mutate).
func (m *Model) Classes() []string { return m.bp.Classes() }

// Predictor returns the compiled predictor behind the snapshot.
func (m *Model) Predictor() c45.BatchPredictor { return m.bp }

// Diagnose classifies one raw (un-normalized) feature vector
// synchronously, bypassing the ingest pipeline.
func (m *Model) Diagnose(fv metrics.Vector) Result {
	cls := m.bp.PredictRow(m.rowOf(fv))
	sev, cause := ParseClass(cls)
	return Result{Class: cls, Severity: sev, Cause: cause}
}

// DiagnoseExplain is Diagnose plus the traversed decision path and its
// human-readable rule rendering. The class is identical to Diagnose's:
// the explanation is recorded on the same traversal.
func (m *Model) DiagnoseExplain(fv metrics.Vector) Result {
	exp := m.bp.PredictRowExplain(m.rowOf(fv))
	sev, cause := ParseClass(exp.Class)
	return Result{Class: exp.Class, Severity: sev, Cause: cause, Explain: exp, Rule: exp.Rule()}
}

// ParseClass splits a predicted class label into its severity and
// cause/location components, mirroring vqprobe.Diagnosis.
func ParseClass(cls string) (severity, cause string) {
	switch cls {
	case "good":
		return "good", "good"
	case "problematic":
		return "problematic", "unknown"
	}
	for _, suffix := range []string{"_mild", "_severe"} {
		if len(cls) > len(suffix) && strings.HasSuffix(cls, suffix) {
			return suffix[1:], strings.TrimSuffix(cls, suffix)
		}
	}
	return "", cls
}

// Policy selects the engine's behavior when a shard queue is full.
type Policy int

const (
	// Block applies backpressure: Submit waits for queue space.
	Block Policy = iota
	// Shed rejects the request immediately and counts it in
	// vqserve_shed_total.
	Shed
)

// Config tunes the engine. The zero value is usable.
type Config struct {
	// Shards is the worker/queue count; sessions hash to a shard by ID.
	// Zero selects runtime.NumCPU().
	Shards int
	// QueueDepth is the per-shard bounded queue size. Zero selects 256.
	QueueDepth int
	// MaxBatch caps how many queued requests a worker drains per model
	// snapshot load. Zero selects 32.
	MaxBatch int
	// Policy is the full-queue behavior (default Block).
	Policy Policy
	// Registry receives the engine's metrics; one is created if nil.
	Registry *metrics.Registry
	// ReloadFunc, when set, backs the POST /-/reload endpoint: it
	// produces a fresh model snapshot (e.g. re-reading the model file).
	ReloadFunc func() (*Model, error)
	// Tracer, when set, records a span per request (parenting queue/
	// normalize/predict stage spans), attaches exemplar trace IDs to the
	// stage latency histograms, and enables the /debug/trace endpoint.
	// Nil (the default) disables all of it at zero per-request cost.
	Tracer *trace.Tracer
	// AlertsFunc, when set, supplies the "alerts" field on /healthz —
	// typically an obs plane's FiringAlerts. The engine treats the
	// result as opaque JSON so serve carries no dependency on the
	// telemetry plane.
	AlertsFunc func() any
	// InjectFault, when set, runs inside the worker just before
	// classification. A non-nil return fails the request with that
	// error; a panic exercises the worker's recovery path. This is the
	// chaos-testing seam (internal/chaos) — leave nil in production.
	InjectFault func(*Request) error
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	return c
}

// Request is one session to classify.
type Request struct {
	// ID identifies the session; requests with equal IDs are processed
	// on the same shard, in submission order.
	ID string `json:"id"`
	// Features is the raw (un-normalized) merged feature vector, keys
	// as produced by the probes / CSV header.
	Features map[string]float64 `json:"features"`
	// Explain requests the traversed decision path in the result.
	Explain bool `json:"explain,omitempty"`

	// decodedBy, set by the /diagnose handler, is the snapshot whose
	// keys chose which features were decoded, and vals the decoded
	// values in that snapshot's slots (Model.names), cut from the
	// body's pooled slab; Features is nil. The worker classifies the
	// request against decodedBy, never against a later snapshot whose
	// slots differ or that reads keys the decode skipped. decodedBy is
	// nil for callers that pass feature maps: they get the snapshot
	// current when their batch is drained.
	decodedBy *snapshotRef
	vals      []float64
}

// snapshotRef pins one snapshot for the requests of one /diagnose body;
// m is nil when no model was loaded.
type snapshotRef struct{ m *Model }

// Result is the engine's answer for one request.
type Result struct {
	ID       string `json:"id,omitempty"`
	Class    string `json:"class,omitempty"`
	Severity string `json:"severity,omitempty"`
	Cause    string `json:"cause,omitempty"`
	// Explain and Rule are populated only when the request asked for
	// them: the exact node path of the classification and its one-line
	// human-readable rendering.
	Explain *c45.Explanation `json:"explain,omitempty"`
	Rule    string           `json:"rule,omitempty"`
	// TraceID links the result to its span in the engine tracer (and to
	// histogram exemplars); empty when tracing is disabled.
	TraceID string `json:"trace_id,omitempty"`
	Err     string `json:"error,omitempty"`
}

// Engine errors.
var (
	ErrClosed     = errors.New("serve: engine is closed")
	ErrOverloaded = errors.New("serve: queue full, request shed")
)

// Engine is the online diagnosis engine. Create with NewEngine, feed
// with Submit/DiagnoseBatch or the HTTP Handler, swap models with
// Reload, and drain with Close.
type Engine struct {
	cfg    Config
	model  atomic.Pointer[Model]
	shards []*shard
	next   atomic.Uint64 // round-robin for requests without an ID

	mu      sync.RWMutex // guards closed against in-flight submits
	closed  bool
	workers sync.WaitGroup

	// reloadErr holds the last failed reload's error message; nil when
	// the engine is healthy. A failed reload never replaces the served
	// model — the engine degrades gracefully, answering from the
	// last-good snapshot while /healthz surfaces the condition.
	reloadErr atomic.Pointer[string]

	// infoMu serializes the vqserve_model_* gauge updates across
	// concurrent reloads; infoGauge is the currently-lit identity series.
	infoMu    sync.Mutex
	infoGauge *metrics.Gauge

	// now is the engine's clock: enqueue stamps, stage timings and
	// uptime all read it, and nothing else in the engine reads the
	// time. It is wall time in service; tests swap in a fake before the
	// first submission to pin or count the readings.
	now func() time.Time

	reg   *metrics.Registry
	obs   *obs
	start time.Time
}

// NewEngine starts the shard workers and returns a ready engine
// serving the given snapshot.
func NewEngine(m *Model, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, reg: cfg.Registry, now: time.Now}
	e.start = e.now()
	e.model.Store(m)
	e.obs = newObs(e.reg)
	e.setModelGauges(m)
	for i := 0; i < cfg.Shards; i++ {
		sh := newShard(i, cfg.QueueDepth, e.reg)
		e.shards = append(e.shards, sh)
		e.workers.Add(1)
		go e.runWorker(sh)
	}
	return e
}

// Model returns the current snapshot.
func (e *Engine) Model() *Model { return e.model.Load() }

// Registry returns the engine's metrics registry.
func (e *Engine) Registry() *metrics.Registry { return e.reg }

// Reload atomically swaps in a new model snapshot. In-flight requests
// finish against whichever snapshot their batch loaded; nothing is
// dropped. A successful reload clears any degraded state left by a
// previously failed one.
func (e *Engine) Reload(m *Model) {
	e.model.Store(m)
	e.reloadErr.Store(nil)
	e.obs.reloads.Inc()
	e.setModelGauges(m)
}

// setModelGauges publishes the snapshot's identity and size on the
// vqserve_model_* series: numeric gauges for node count and load time,
// plus an info-style gauge whose label carries the snapshot hash (the
// currently-served identity is the series at 1; a reload drops the
// previous identity to 0).
func (e *Engine) setModelGauges(m *Model) {
	if m == nil {
		return
	}
	info := m.Info()
	e.infoMu.Lock()
	defer e.infoMu.Unlock()
	e.obs.modelNodes.Set(float64(info.Nodes))
	e.obs.modelLoad.Set(info.LoadMillis / 1e3)
	g := e.reg.Gauge(fmt.Sprintf("vqserve_model_info{snapshot=%q}", info.SnapshotHash),
		"serving model identity (1 = currently served)")
	if prev := e.infoGauge; prev != nil && prev != g {
		prev.Set(0)
	}
	e.infoGauge = g
	g.Set(1)
}

// NoteReloadError records a failed reload attempt. The served model is
// untouched — the engine keeps answering from the last-good snapshot —
// but /healthz reports status "degraded" with the error until a reload
// succeeds.
func (e *Engine) NoteReloadError(err error) {
	if err == nil {
		return
	}
	msg := err.Error()
	e.reloadErr.Store(&msg)
	e.obs.reloadFails.Inc()
}

// LastReloadError returns the message of the most recent failed reload,
// or "" when the engine is healthy.
func (e *Engine) LastReloadError() string {
	if p := e.reloadErr.Load(); p != nil {
		return *p
	}
	return ""
}

// Submit enqueues one request. res is written and done invoked exactly
// once when the request completes; on a non-nil error neither happens.
func (e *Engine) Submit(req Request, res *Result, done func()) error {
	return e.submit(req, res, done, e.now())
}

// submit is Submit with the enqueue time enq supplied, so one clock
// reading serves a whole DiagnoseBatch round.
func (e *Engine) submit(req Request, res *Result, done func(), enq time.Time) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	sh := e.shards[e.shardFor(req.ID)]
	j := job{req: req, res: res, done: done, enq: enq}
	if e.cfg.Policy == Shed {
		select {
		case sh.ch <- j:
		default:
			e.obs.shed.Inc()
			return ErrOverloaded
		}
	} else {
		sh.ch <- j
	}
	e.obs.submitted.Inc()
	sh.depth.Set(float64(len(sh.ch)))
	return nil
}

// ValidateFeatures rejects feature vectors carrying NaN or ±Inf
// values. NaN is the pipeline's internal missing-value sentinel: letting
// it in from a client would silently classify the record down the
// missing-value path of every split instead of failing loudly. The
// offending feature named is the lexicographically smallest one, so the
// error is deterministic regardless of map iteration order.
func ValidateFeatures(fv map[string]float64) error {
	bad := ""
	for k, v := range fv {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if bad == "" || k < bad {
				bad = k
			}
		}
	}
	if bad != "" {
		return fmt.Errorf("feature %q: non-finite value (NaN/Inf not allowed)", bad)
	}
	return nil
}

// DiagnoseBatch classifies a batch through the pipeline and returns
// results in request order. Requests rejected by the shed policy (or a
// closed engine) come back at once with Err set; the rest wait for
// their answers. The batch reads the clock once: its rows share one
// enqueue time.
func (e *Engine) DiagnoseBatch(reqs []Request) []Result {
	res := make([]Result, len(reqs))
	e.obs.inflight.Add(float64(len(reqs)))
	defer e.obs.inflight.Add(-float64(len(reqs)))
	var wg sync.WaitGroup
	wg.Add(len(reqs)) // each row is Done once: answered, failed or shed
	done := wg.Done   // one method value for every row, not a closure per row
	enq := e.now()
	for i := range reqs {
		if err := e.submit(reqs[i], &res[i], done, enq); err != nil {
			res[i] = Result{ID: reqs[i].ID, Err: err.Error()}
			wg.Done()
		}
	}
	wg.Wait()
	return res
}

// Counters returns the engine's request accounting. After Close has
// drained the pipeline the invariant submitted == requests + errors
// must hold: every request accepted into a queue is answered exactly
// once, classified or failed. Shed requests never enter the pipeline
// and appear only in shed.
func (e *Engine) Counters() (submitted, requests, errors, shed uint64) {
	return e.obs.submitted.Value(), e.obs.requests.Value(), e.obs.errs.Value(), e.obs.shed.Value()
}

// Close stops intake, drains every queued request, and waits for the
// workers to exit. Safe to call more than once.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	for _, sh := range e.shards {
		close(sh.ch)
	}
	e.workers.Wait()
	return nil
}
