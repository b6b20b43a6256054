// Package serve is the online diagnosis engine: the deployable,
// always-on form of the paper's diagnostic tool. It classifies live
// session records through an immutable compiled-model snapshot, each
// body on its caller's goroutine in pooled batch sweeps under a
// row-count admission limit, supports hot model reload without
// dropping in-flight requests, and exposes stdlib-only observability
// (Prometheus-text /metrics, /healthz, and an NDJSON /diagnose
// endpoint). cmd/vqserve is a thin daemon over this package;
// vqprobe.NewEngine is the public entry point.
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

// Policy selects the engine's behavior when admission is full: when
// Shards × QueueDepth rows are already admitted and unanswered.
type Policy int

const (
	// Block applies backpressure: a chunk waits until its rows fit.
	Block Policy = iota
	// Shed answers the rows that do not fit with ErrOverloaded at once
	// and counts them in vqserve_shed_total.
	Shed
)

// Config tunes the engine. The zero value is usable.
type Config struct {
	// Shards caps the goroutines that classify one body: its caller
	// plus up to Shards-1 helpers, one chunk each at a time. Concurrent
	// callers classify their bodies at once, bounded only by admission.
	// Zero selects runtime.NumCPU().
	Shards int
	// QueueDepth sizes admission: at most Shards × QueueDepth rows are
	// admitted and unanswered across all callers. Zero selects 256.
	QueueDepth int
	// MaxBatch caps a chunk, the rows classified per model snapshot
	// load and batch sweep; a chunk is also never larger than the
	// admission limit. Zero selects 32.
	MaxBatch int
	// Policy is the full-admission behavior (default Block).
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
	// InjectFault, when set, runs on each admitted row just before
	// normalization. A non-nil return fails the request with that
	// error; a panic exercises the per-row recovery path. This is the
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
	// ID identifies the session and is echoed in the result. The engine
	// keeps no order among requests with equal IDs: DiagnoseBatch
	// answers by index.
	ID string `json:"id"`
	// Features is the raw (un-normalized) merged feature vector, keys
	// as produced by the probes / CSV header.
	Features map[string]float64 `json:"features"`
	// Explain requests the traversed decision path in the result.
	Explain bool `json:"explain,omitempty"`

	// decodedBy, set by the /diagnose handler, is the snapshot whose
	// keys chose which features were decoded, and vals the decoded
	// values in that snapshot's slots (Model.names), cut from the
	// body's pooled slab; Features is nil. The engine classifies the
	// request against decodedBy, never against a later snapshot whose
	// slots differ or that reads keys the decode skipped. decodedBy is
	// nil for callers that pass feature maps: they get the snapshot
	// current when their chunk is admitted.
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
// with DiagnoseBatch or the HTTP Handler, swap models with Reload, and
// drain with Close. It keeps no goroutines between calls: each body is
// classified on its caller's goroutine and up to Shards-1 helpers that
// end with the call.
type Engine struct {
	cfg   Config
	model atomic.Pointer[Model]

	// Admission: at most limit rows are admitted and unanswered at
	// once, and a body is classified in chunks of at most chunk rows.
	// mu guards the fields below it; room is broadcast when rows are
	// released while someone waits, and on Close.
	limit, chunk int
	mu           sync.Mutex
	room         sync.Cond
	admitted     int
	waiting      int
	closed       bool
	// free holds the scratch of every chunk not in flight: admission
	// hands one out and release takes it back, under the lock both
	// already hold, so there is at most one per chunk ever in flight at
	// once. A sync.Pool would cost its own synchronization, and under
	// the race detector it drops a quarter of what it is given.
	free []*batchScratch

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
	// first body to pin or count the readings.
	now func() time.Time

	reg   *metrics.Registry
	obs   *obs
	start time.Time
}

// NewEngine returns a ready engine serving the given snapshot.
func NewEngine(m *Model, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, reg: cfg.Registry, now: time.Now}
	e.limit = cfg.Shards * cfg.QueueDepth
	e.chunk = min(cfg.MaxBatch, e.limit)
	e.room.L = &e.mu
	e.start = e.now()
	e.model.Store(m)
	e.obs = newObs(e.reg)
	e.setModelGauges(m)
	return e
}

// Model returns the current snapshot.
func (e *Engine) Model() *Model { return e.model.Load() }

// Registry returns the engine's metrics registry.
func (e *Engine) Registry() *metrics.Registry { return e.reg }

// Reload atomically swaps in a new model snapshot. In-flight requests
// finish against whichever snapshot their chunk loaded; nothing is
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

// DiagnoseBatch classifies a batch and returns results in request
// order. The body splits into chunks of at most MaxBatch rows, taken by
// the calling goroutine and up to Shards-1 helpers; each chunk is
// admitted, then classified by one snapshot in one batch sweep. Rows
// refused admission (by the shed policy or a closed engine) are
// answered with Err set. The batch reads the clock once for its
// enqueue time.
func (e *Engine) DiagnoseBatch(reqs []Request) []Result {
	res := make([]Result, len(reqs))
	e.obs.inflight.Add(float64(len(reqs)))
	defer e.obs.inflight.Add(-float64(len(reqs)))
	enq := e.now()
	chunks := (len(reqs) + e.chunk - 1) / e.chunk
	if helpers := min(e.cfg.Shards, chunks) - 1; helpers > 0 {
		e.fanOut(reqs, res, enq, helpers)
		return res
	}
	for lo := 0; lo < len(reqs); lo += e.chunk {
		hi := min(lo+e.chunk, len(reqs))
		e.runChunk(reqs[lo:hi], res[lo:hi], enq)
	}
	return res
}

// fanOut runs a body's chunks on the calling goroutine and helpers
// more, each taking the next untaken chunk until none is left.
func (e *Engine) fanOut(reqs []Request, res []Result, enq time.Time, helpers int) {
	var next atomic.Int64
	take := func() {
		for {
			lo := int(next.Add(1)-1) * e.chunk
			if lo >= len(reqs) {
				return
			}
			hi := min(lo+e.chunk, len(reqs))
			e.runChunk(reqs[lo:hi], res[lo:hi], enq)
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for range helpers {
		go func() {
			defer wg.Done()
			take()
		}()
	}
	take()
	wg.Wait()
}

// admit reserves room for a chunk of want rows and returns how many
// rows it admitted, with a scratch to classify them in (nil when none
// was admitted) and the error that refuses the rest. Under Block it
// waits until all want fit; a chunk is never larger than the limit, so
// it fits once the admitted rows are answered, and a large body cannot
// deadlock. Under Shed it admits what fits now. A closed engine admits
// nothing.
func (e *Engine) admit(want int) (int, *batchScratch, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.cfg.Policy == Block && !e.closed && e.admitted+want > e.limit {
		e.waiting++
		e.room.Wait()
		e.waiting--
	}
	if e.closed {
		return 0, nil, ErrClosed
	}
	n := min(want, e.limit-e.admitted)
	e.admitted += n
	e.obs.submitted.Add(uint64(n))
	e.obs.shed.Add(uint64(want - n))
	if n == 0 {
		return 0, nil, ErrOverloaded
	}
	var ws *batchScratch
	if k := len(e.free); k > 0 {
		ws, e.free = e.free[k-1], e.free[:k-1]
	} else {
		ws = new(batchScratch)
	}
	return n, ws, ErrOverloaded
}

// release returns n answered rows' room to admission, and their
// chunk's scratch to the free list.
func (e *Engine) release(n int, ws *batchScratch) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.admitted -= n
	e.free = append(e.free, ws)
	if e.waiting > 0 {
		e.room.Broadcast()
	}
}

// Counters returns the engine's request accounting. After Close has
// drained the engine the invariant submitted == requests + errors
// must hold: every admitted row is answered exactly once, classified
// or failed. Shed rows are never admitted and appear only in shed.
func (e *Engine) Counters() (submitted, requests, errors, shed uint64) {
	return e.obs.submitted.Value(), e.obs.requests.Value(), e.obs.errs.Value(), e.obs.shed.Value()
}

// Close stops admission, answering every row not yet admitted with
// ErrClosed (a Block waiter included), and returns once every admitted
// row has been answered. Safe to call more than once.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	e.room.Broadcast()
	for e.admitted > 0 {
		e.waiting++
		e.room.Wait()
		e.waiting--
	}
	return nil
}
