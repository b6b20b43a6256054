package serve

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"time"

	"vqprobe/internal/metrics"
	"vqprobe/internal/ml/c45"
)

// job is one queued classification. enq is the engine-clock time its
// submission round began: every row a DiagnoseBatch round submits
// shares one reading.
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
	vals  []float64 // a feature-map request's raw values, in the model's slots
	row   []float64 // schema row: prep stages into it, explain rows are read back into it

	snaps    []*Model  // distinct snapshots of the batch being processed
	dequeued time.Time // when the batch being processed was drained

	// Per batched job, parallel to the matrix rows.
	jobs []*job
	exp  []*c45.Explanation // recorded paths of explain rows; nil for plain ones
}

// runWorker drains one shard: it batches up to MaxBatch queued jobs,
// loads the model snapshot once per batch, and classifies the drain
// through one PredictBatchIdx frontier sweep per snapshot over a pooled
// matrix. It keeps its accounts per batch and per sweep, not per row:
// one clock read at dequeue and two per sweep time every stage.
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
		ws.dequeued = e.now()
		e.processBatch(m, batch, ws)
	}
}

// processBatch classifies one drained batch. A job is classified by
// the snapshot its body was decoded against (Request.decodedBy), else
// by cur, the snapshot loaded for this batch; usually that is one
// snapshot, and a drain that straddles a reload holds two. Per
// snapshot, every job that passes prep is normalized into the worker's
// pooled matrix and classified in a single batch sweep, whose cost is
// attributed evenly across the swept requests' predict-stage
// latencies. The sweeps only write results; the closing loop then
// completes every job in drain order, so same-session requests
// complete in submission order however early each was answered.
//
// Every drained job waited in its queue, whether it is then answered
// or fails (a panic included), so the queue stage is observed here for
// all of them: once per run of jobs enqueued together.
func (e *Engine) processBatch(cur *Model, batch []job, ws *batchScratch) {
	for i := 0; i < len(batch); {
		enq, k := batch[i].enq, i+1
		for k < len(batch) && batch[k].enq.Equal(enq) {
			k++
		}
		e.obs.queueHist.ObserveN(ws.dequeued.Sub(enq).Seconds(), uint64(k-i))
		i = k
	}
	ws.snaps = ws.snaps[:0]
	for i := range batch {
		if m := batch[i].model(cur); !slices.Contains(ws.snaps, m) {
			ws.snaps = append(ws.snaps, m)
		}
	}
	at := ws.dequeued
	for _, m := range ws.snaps {
		at = e.sweep(m, cur, batch, ws, at)
	}
	for i := range batch {
		e.complete(&batch[i])
	}
}

// model is the snapshot that classifies j when cur is current.
func (j *job) model(cur *Model) *Model {
	if j.req.decodedBy != nil {
		return j.req.decodedBy.m
	}
	return cur
}

// sweep classifies the jobs of batch whose snapshot is m. Its prep
// loop starts at start, the dequeue time or the end of the batch's
// previous sweep; it reads the clock when the loop ends and when the
// predict sweep does, and returns the last reading.
func (e *Engine) sweep(m, cur *Model, batch []job, ws *batchScratch, start time.Time) time.Time {
	if m != nil {
		if ws.model != m {
			// First batch against another snapshot: rebuild the pooled
			// matrix for its schema. Happens once per reload per worker,
			// and per sweep while a drain straddles one.
			ws.model = m
			ws.mat = m.bp.NewMatrix(cap(batch))
			ws.vals = make([]float64, len(m.names))
			ws.row = make([]float64, len(m.plan))
		}
		ws.mat.Reset()
	}
	ws.jobs, ws.exp = ws.jobs[:0], ws.exp[:0]
	for i := range batch {
		if batch[i].model(cur) == m {
			e.prep(m, &batch[i], ws)
		}
	}
	n := len(ws.jobs)
	if n == 0 {
		return start
	}
	prepped := e.now()
	errMsg := e.predictBatch(m, ws)
	end := e.now()
	if errMsg != "" {
		for _, j := range ws.jobs {
			e.fail(j, errMsg)
		}
		return end
	}
	e.finish(m, ws, prepped.Sub(start)/time.Duration(n), end.Sub(prepped)/time.Duration(n), end)
	return end
}

// prep runs one job's pre-classification stages — model and validity
// checks, fault injection, normalization — and appends the normalized
// row to the worker's pooled matrix. A job that fails a check gets its
// error result here and no row. A panic (e.g. from InjectFault) is
// recovered per job, so one poisoned request never kills the shard
// worker.
func (e *Engine) prep(m *Model, j *job, ws *batchScratch) {
	defer func() {
		if r := recover(); r != nil {
			j.res.ID = j.req.ID
			j.res.Err = fmt.Sprintf("internal error: recovered panic: %v", r)
			e.obs.panics.Inc()
			e.obs.errs.Inc()
		}
	}()
	if m == nil {
		e.fail(j, "no model loaded")
		return
	}
	// A decoded row carries no non-finite value (reqscan), only NaN for
	// an absent key; a caller's map is checked here.
	if j.req.decodedBy == nil {
		if err := ValidateFeatures(j.req.Features); err != nil {
			e.obs.invalid.Inc()
			e.fail(j, err.Error())
			return
		}
	}
	if f := e.cfg.InjectFault; f != nil {
		if err := f(&j.req); err != nil {
			e.fail(j, err.Error())
			return
		}
	}
	vals := j.req.vals
	if j.req.decodedBy == nil {
		m.gather(j.req.Features, ws.vals)
		vals = ws.vals
	}
	m.fillRow(vals, ws.row)
	ws.mat.AppendRowValues(ws.row)
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
			ws.exp[bi] = m.bp.PredictRowExplain(ws.row)
		}
	}
	return ""
}

// fail answers one job with an error.
func (e *Engine) fail(j *job, msg string) {
	j.res.ID = j.req.ID
	j.res.Err = msg
	e.obs.errs.Inc()
}

// finish writes a successful sweep's results and records their stage
// latencies, all ending at end: normalize and predict once each, as
// the sweep's per-row shares normD and predD, and total once per run
// of jobs enqueued together. With a tracer, each request also records
// its span tree and its exemplars.
func (e *Engine) finish(m *Model, ws *batchScratch, normD, predD time.Duration, end time.Time) {
	n := uint64(len(ws.jobs))
	e.obs.normHist.ObserveN(normD.Seconds(), n)
	e.obs.predHist.ObserveN(predD.Seconds(), n)
	for i := 0; i < len(ws.jobs); {
		enq, k := ws.jobs[i].enq, i+1
		for k < len(ws.jobs) && ws.jobs[k].enq.Equal(enq) {
			k++
		}
		e.obs.totalHist.ObserveN(end.Sub(enq).Seconds(), uint64(k-i))
		i = k
	}
	e.obs.requests.Add(n)

	// The engine measures stages on its own clock; a tracer's spans are
	// anchored on the tracer clock ending now.
	tr := e.cfg.Tracer
	traced, trEnd := tr.Enabled(), tr.Now()
	classes := m.bp.Classes()
	for bi, j := range ws.jobs {
		label := classes[ws.idx[bi]]
		sev, cause := ParseClass(label)
		*j.res = Result{ID: j.req.ID, Class: label, Severity: sev, Cause: cause}
		if exp := ws.exp[bi]; exp != nil {
			j.res.Explain, j.res.Rule = exp, exp.Rule()
		}
		if !traced {
			continue
		}
		queueD, totalD := ws.dequeued.Sub(j.enq), end.Sub(j.enq)
		reqID := tr.RecordSpan("serve", "request", "id="+j.req.ID+" class="+label, 0, trEnd-totalD, totalD)
		tr.RecordSpan("serve", "queue", "", reqID, trEnd-totalD, queueD)
		tr.RecordSpan("serve", "normalize", "", reqID, trEnd-normD-predD, normD)
		tr.RecordSpan("serve", "predict", "", reqID, trEnd-predD, predD)
		tid := strconv.FormatUint(uint64(reqID), 16)
		j.res.TraceID = tid
		e.obs.queueHist.SetExemplar(queueD.Seconds(), tid)
		e.obs.normHist.SetExemplar(normD.Seconds(), tid)
		e.obs.predHist.SetExemplar(predD.Seconds(), tid)
		e.obs.totalHist.SetExemplar(totalD.Seconds(), tid)
	}
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
	submitted, panics, invalid    *metrics.Counter
	reloadFails                   *metrics.Counter
	inflight                      *metrics.Gauge
	modelNodes, modelLoad         *metrics.Gauge
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
		invalid:     reg.Counter("vqserve_invalid_total", "requests rejected for non-finite feature values"),
		reloadFails: reg.Counter("vqserve_reload_failures_total", "model reload attempts that failed (engine degraded)"),
		inflight:    reg.Gauge("vqserve_inflight", "requests currently in the pipeline"),
		modelNodes:  reg.Gauge("vqserve_model_nodes", "compiled nodes in the serving model"),
		modelLoad:   reg.Gauge("vqserve_model_load_seconds", "how long loading the serving model took"),
		queueHist:   stage("queue"),
		normHist:    stage("normalize"),
		predHist:    stage("predict"),
		totalHist:   stage("total"),
		batchSize: reg.Histogram("vqserve_batch_size", "jobs drained per worker wakeup",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
	}
}
