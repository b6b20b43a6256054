package serve

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"vqprobe/internal/metrics"
	"vqprobe/internal/ml/c45"
)

// job is one queued classification.
type job struct {
	req  Request
	res  *Result
	done func()
	enq  time.Time
}

// shard is one bounded queue + worker pair.
type shard struct {
	id    int
	ch    chan job
	depth *metrics.Gauge
}

func newShard(id, depth int, reg *metrics.Registry) *shard {
	return &shard{
		id:    id,
		ch:    make(chan job, depth),
		depth: reg.Gauge(fmt.Sprintf("vqserve_queue_depth{shard=%q}", fmt.Sprint(id)), "queued requests per shard"),
	}
}

// shardFor hashes a session ID onto a shard so per-session order is
// preserved; requests without an ID round-robin across shards.
func (e *Engine) shardFor(id string) int {
	if id == "" {
		return int(e.next.Add(1) % uint64(len(e.shards)))
	}
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(e.shards)))
}

// batchScratch is one worker's pooled batch-classification state. The
// matrix is laid out for a specific model snapshot and rebuilt only
// when the worker first sees a new snapshot, so steady-state serving
// allocates nothing per plain request.
type batchScratch struct {
	model *Model // snapshot the matrix layout belongs to
	mat   *c45.Matrix
	bs    c45.BatchScratch
	idx   []int32
	row   []float64 // schema row: prep stages into it, explain rows are read back into it

	// Per batched job, parallel to the matrix rows.
	jobs   []*job
	queueD []time.Duration
	normD  []time.Duration
	exp    []*c45.Explanation // recorded paths of explain rows; nil for plain ones
}

// runWorker drains one shard: it batches up to MaxBatch queued jobs,
// loads the model snapshot once per batch, and classifies the whole
// drain through one PredictBatchIdx frontier sweep over a pooled
// matrix, recording per-stage latencies per request.
func (e *Engine) runWorker(sh *shard) {
	defer e.workers.Done()
	batch := make([]job, 0, e.cfg.MaxBatch)
	ws := &batchScratch{}
	for {
		j, ok := <-sh.ch
		if !ok {
			return
		}
		batch = append(batch[:0], j)
	drain:
		for len(batch) < cap(batch) {
			select {
			case j2, ok := <-sh.ch:
				if !ok {
					break drain
				}
				batch = append(batch, j2)
			default:
				break drain
			}
		}
		sh.depth.Set(float64(len(sh.ch)))
		e.obs.batchSize.Observe(float64(len(batch)))
		m := e.model.Load()
		//lint:ignore virtclock serving measures real request latency; there is no virtual clock here
		dequeued := time.Now()
		e.processBatch(m, batch, ws, dequeued)
	}
}

// processBatch classifies one drained batch. Every job that passes
// prep is normalized into the worker's pooled matrix and classified in
// a single batch sweep, whose cost is attributed evenly across the
// batched requests' predict-stage latencies. The stages only write
// results; the closing loop then completes every job in drain order,
// so same-session requests complete in submission order however early
// each was answered.
func (e *Engine) processBatch(m *Model, batch []job, ws *batchScratch, dequeued time.Time) {
	if m != nil {
		if ws.model != m {
			// First batch against a fresh snapshot: rebuild the pooled
			// matrix for its schema. Happens once per reload per worker.
			ws.model = m
			ws.mat = m.bp.NewMatrix(cap(batch))
			ws.row = make([]float64, len(m.plan))
		}
		ws.mat.Reset()
	}
	ws.jobs, ws.queueD, ws.normD, ws.exp = ws.jobs[:0], ws.queueD[:0], ws.normD[:0], ws.exp[:0]
	for i := range batch {
		e.prep(m, &batch[i], ws, dequeued)
	}
	if n := len(ws.jobs); n > 0 {
		//lint:ignore virtclock stage timings for /metrics histograms are wall time by design
		t0 := time.Now()
		errMsg := e.predictBatch(m, ws)
		//lint:ignore virtclock stage timings for /metrics histograms are wall time by design
		share := time.Since(t0) / time.Duration(n)
		for bi := range ws.jobs {
			if errMsg != "" {
				e.failBatched(ws.jobs[bi], ws.queueD[bi], errMsg)
			} else {
				e.finish(m, ws, bi, share)
			}
		}
	}
	for i := range batch {
		e.complete(&batch[i])
	}
}

// prep runs one job's pre-classification stages — model, timeout and
// validity checks, fault injection, normalization — and appends the
// normalized row to the worker's pooled matrix. A job that fails a
// check, or asks a forest for an explanation, gets its error result
// here and no row. A panic (e.g. from InjectFault) is recovered per
// job, so one poisoned request never kills the shard worker.
func (e *Engine) prep(m *Model, j *job, ws *batchScratch, dequeued time.Time) {
	defer func() {
		if r := recover(); r != nil {
			j.res.ID = j.req.ID
			j.res.Err = fmt.Sprintf("internal error: recovered panic: %v", r)
			e.obs.panics.Inc()
			e.obs.errs.Inc()
		}
	}()
	queueD := dequeued.Sub(j.enq)
	fail := func(msg string) {
		e.obs.queueHist.Observe(queueD.Seconds())
		j.res.ID = j.req.ID
		j.res.Err = msg
		e.obs.errs.Inc()
	}
	if m == nil {
		fail("no model loaded")
		return
	}
	if d := e.cfg.RequestTimeout; d > 0 && queueD > d {
		e.obs.timeouts.Inc()
		fail(fmt.Sprintf("request timed out after %v in queue (limit %v)", queueD, d))
		return
	}
	if err := ValidateFeatures(j.req.Features); err != nil {
		e.obs.invalid.Inc()
		fail(err.Error())
		return
	}
	if f := e.cfg.InjectFault; f != nil {
		if err := f(&j.req); err != nil {
			fail(err.Error())
			return
		}
	}
	if j.req.Explain && m.tree == nil {
		fail(errExplainForest)
		return
	}
	//lint:ignore virtclock stage timings for /metrics histograms are wall time by design
	t0 := time.Now()
	m.fillRow(metrics.Vector(j.req.Features), ws.row)
	ws.mat.AppendRowValues(ws.row)
	//lint:ignore virtclock stage timings for /metrics histograms are wall time by design
	ws.normD = append(ws.normD, time.Since(t0))
	ws.queueD = append(ws.queueD, queueD)
	ws.jobs = append(ws.jobs, j)
	ws.exp = append(ws.exp, nil)
}

// predictBatch runs the frontier sweep over the pooled matrix, then
// records the decision path of each explain row from its matrix row;
// the row's class still comes from the sweep. A panic is recovered
// here so a poisoned batch fails its requests instead of killing the
// shard worker; the returned message is empty on success.
func (e *Engine) predictBatch(m *Model, ws *batchScratch) (errMsg string) {
	defer func() {
		if r := recover(); r != nil {
			e.obs.panics.Inc()
			errMsg = fmt.Sprintf("internal error: recovered panic: %v", r)
		}
	}()
	rows := ws.mat.Rows()
	if cap(ws.idx) < rows {
		ws.idx = make([]int32, rows)
	}
	ws.idx = ws.idx[:rows]
	m.bp.PredictBatchIdx(ws.mat, &ws.bs, ws.idx)
	for bi, j := range ws.jobs {
		if j.req.Explain {
			ws.mat.Row(bi, ws.row)
			ws.exp[bi] = m.tree.PredictRowExplain(ws.row)
		}
	}
	return ""
}

// failBatched answers one batched job after the batch sweep failed.
func (e *Engine) failBatched(j *job, queueD time.Duration, msg string) {
	e.obs.queueHist.Observe(queueD.Seconds())
	j.res.ID = j.req.ID
	j.res.Err = msg
	e.obs.errs.Inc()
}

// finish writes batched job bi's successful result and records its
// stage latencies and trace spans. predD is this request's even share
// of the batch sweep's duration.
func (e *Engine) finish(m *Model, ws *batchScratch, bi int, predD time.Duration) {
	j, queueD, normD := ws.jobs[bi], ws.queueD[bi], ws.normD[bi]
	label := m.bp.Classes()[ws.idx[bi]]
	sev, cause := ParseClass(label)
	*j.res = Result{ID: j.req.ID, Class: label, Severity: sev, Cause: cause}
	if exp := ws.exp[bi]; exp != nil {
		j.res.Explain, j.res.Rule = exp, exp.Rule()
	}
	//lint:ignore virtclock stage timings for /metrics histograms are wall time by design
	totalD := time.Since(j.enq)

	if tr := e.cfg.Tracer; tr.Enabled() {
		// The engine measures stages with its own monotonic stopwatch;
		// anchor the spans on the tracer clock ending now.
		end := tr.Now()
		reqID := tr.RecordSpan("serve", "request", "id="+j.req.ID+" class="+label, 0, end-totalD, totalD)
		tr.RecordSpan("serve", "queue", "", reqID, end-totalD, queueD)
		tr.RecordSpan("serve", "normalize", "", reqID, end-normD-predD, normD)
		tr.RecordSpan("serve", "predict", "", reqID, end-predD, predD)
		tid := strconv.FormatUint(uint64(reqID), 16)
		j.res.TraceID = tid
		e.obs.queueHist.ObserveExemplar(queueD.Seconds(), tid)
		e.obs.normHist.ObserveExemplar(normD.Seconds(), tid)
		e.obs.predHist.ObserveExemplar(predD.Seconds(), tid)
		e.obs.totalHist.ObserveExemplar(totalD.Seconds(), tid)
	} else {
		e.obs.queueHist.Observe(queueD.Seconds())
		e.obs.normHist.Observe(normD.Seconds())
		e.obs.predHist.Observe(predD.Seconds())
		e.obs.totalHist.Observe(totalD.Seconds())
	}
	e.obs.requests.Inc()
}

// complete invokes the job's done callback, swallowing a panic from
// the caller's code: the job's accounting already stands, and the
// worker must survive. It is the worker's only completion site.
func (e *Engine) complete(j *job) {
	defer func() {
		if r := recover(); r != nil {
			e.obs.panics.Inc()
		}
	}()
	j.done()
}

// obs bundles the engine's metric handles; names are documented in
// docs/SERVING.md.
//
// Accounting invariant (checked by internal/chaos and vqserve's drain):
// once the engine is drained, submitted == requests + errs. Shed
// requests never enter the pipeline and are counted only in shed.
type obs struct {
	requests, shed, errs, reloads *metrics.Counter
	submitted, panics, timeouts   *metrics.Counter
	invalid, retries, reloadFails *metrics.Counter
	inflight                      *metrics.Gauge
	modelNodes, modelTrees        *metrics.Gauge
	modelLoad                     *metrics.Gauge
	queueHist, normHist, predHist *metrics.Histogram
	totalHist, batchSize          *metrics.Histogram
}

func newObs(reg *metrics.Registry) *obs {
	stage := func(s string) *metrics.Histogram {
		return reg.Histogram(fmt.Sprintf("vqserve_stage_latency_seconds{stage=%q}", s),
			"per-stage request latency", metrics.LatencyBuckets)
	}
	return &obs{
		requests:    reg.Counter("vqserve_requests_total", "requests classified"),
		shed:        reg.Counter("vqserve_shed_total", "requests rejected by the shed policy"),
		errs:        reg.Counter("vqserve_errors_total", "requests that failed to classify"),
		reloads:     reg.Counter("vqserve_model_reloads_total", "model hot reloads"),
		submitted:   reg.Counter("vqserve_submitted_total", "requests accepted into a shard queue"),
		panics:      reg.Counter("vqserve_panics_recovered_total", "worker panics recovered"),
		timeouts:    reg.Counter("vqserve_timeouts_total", "requests expired in queue past RequestTimeout"),
		invalid:     reg.Counter("vqserve_invalid_total", "requests rejected for non-finite feature values"),
		retries:     reg.Counter("vqserve_retries_total", "shed requests re-submitted with backoff"),
		reloadFails: reg.Counter("vqserve_reload_failures_total", "model reload attempts that failed (engine degraded)"),
		inflight:    reg.Gauge("vqserve_inflight", "requests currently in the pipeline"),
		modelNodes:  reg.Gauge("vqserve_model_nodes", "compiled nodes in the serving model"),
		modelTrees:  reg.Gauge("vqserve_model_trees", "trees in the serving model (1 = single tree)"),
		modelLoad:   reg.Gauge("vqserve_model_load_seconds", "how long loading the serving model took"),
		queueHist:   stage("queue"),
		normHist:    stage("normalize"),
		predHist:    stage("predict"),
		totalHist:   stage("total"),
		batchSize: reg.Histogram("vqserve_batch_size", "jobs drained per worker wakeup",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
	}
}
