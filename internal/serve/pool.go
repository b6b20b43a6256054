package serve

import (
	"fmt"
	"strconv"
	"time"

	"vqprobe/internal/metrics"
	"vqprobe/internal/ml/c45"
)

// batchScratch is one chunk's pooled batch-classification state, and
// names the chunk it is classifying. The matrix is laid out for a
// specific model snapshot and rebuilt only when the scratch first
// serves a new snapshot, so steady-state serving allocates nothing per
// plain request.
type batchScratch struct {
	model *Model // snapshot the matrix layout belongs to
	mat   *c45.Matrix
	bs    c45.BatchScratch
	idx   []int32
	vals  []float64 // a feature-map request's raw values, in the model's slots
	row   []float64 // schema row: prep stages into it, explain rows are read back into it

	// The chunk being classified: its rows and their answers, the
	// body's enqueue time and the chunk's admission time.
	reqs          []Request
	res           []Result
	enq, admitted time.Time

	// Per swept row, parallel to the matrix rows.
	rows []int              // the row's index in reqs
	exp  []*c45.Explanation // recorded paths of explain rows; nil for plain ones
}

// runChunk admits one chunk of a body, answers the rows refused
// admission, and classifies the rest. The chunk keeps its accounts
// once, not per row: one clock read at admission and two per sweep
// time every stage. Every admitted row waited for admission, whether
// it is then answered or fails (a panic included), so the queue stage
// counts all of them.
func (e *Engine) runChunk(reqs []Request, res []Result, enq time.Time) {
	n, ws, refused := e.admit(len(reqs))
	for i := n; i < len(reqs); i++ {
		res[i] = Result{ID: reqs[i].ID, Err: refused.Error()}
	}
	if n == 0 {
		return
	}
	defer e.release(n, ws)
	ws.reqs, ws.res, ws.enq = reqs[:n], res[:n], enq
	ws.admitted = e.now()
	e.obs.queueHist.ObserveN(ws.admitted.Sub(enq).Seconds(), uint64(n))
	// A chunk holds rows of one body, and the /diagnose handler binds
	// every row of its body to the snapshot it decoded against.
	m := e.model.Load()
	if d := reqs[0].decodedBy; d != nil {
		m = d.m
	}
	e.sweep(m, ws)
	ws.reqs, ws.res = nil, nil
}

// sweep classifies the admitted chunk in ws against m: every row that
// passes prep is normalized into the pooled matrix and classified in a
// single batch sweep, whose cost is attributed evenly across the swept
// rows' predict-stage latencies. It reads the clock when prep ends and
// when the sweep does.
func (e *Engine) sweep(m *Model, ws *batchScratch) {
	if m != nil {
		if ws.model != m {
			// First chunk against another snapshot: rebuild the pooled
			// matrix for its schema. Happens once per reload per scratch.
			ws.model = m
			ws.mat = m.bp.NewMatrix(e.chunk)
			ws.vals = make([]float64, len(m.names))
			ws.row = make([]float64, len(m.plan))
		}
		ws.mat.Reset()
	}
	ws.rows, ws.exp = ws.rows[:0], ws.exp[:0]
	for i := range ws.reqs {
		e.prep(m, i, ws)
	}
	n := len(ws.rows)
	if n == 0 {
		return
	}
	e.obs.batchSize.Observe(float64(n))
	prepped := e.now()
	errMsg := e.predictBatch(m, ws)
	end := e.now()
	if errMsg != "" {
		for _, i := range ws.rows {
			e.fail(&ws.reqs[i], &ws.res[i], errMsg)
		}
		return
	}
	e.finish(m, ws, prepped.Sub(ws.admitted)/time.Duration(n), end.Sub(prepped)/time.Duration(n), end)
}

// prep runs one admitted row's pre-classification stages — model and
// validity checks, fault injection, normalization — and appends the
// normalized row to the chunk's pooled matrix. A row that fails a
// check gets its error result here and no matrix row. A panic (e.g.
// from InjectFault) is recovered per row, so one poisoned request
// fails alone and its chunk still sweeps.
func (e *Engine) prep(m *Model, i int, ws *batchScratch) {
	req, res := &ws.reqs[i], &ws.res[i]
	defer func() {
		if r := recover(); r != nil {
			res.ID = req.ID
			res.Err = fmt.Sprintf("internal error: recovered panic: %v", r)
			e.obs.panics.Inc()
			e.obs.errs.Inc()
		}
	}()
	if m == nil {
		e.fail(req, res, "no model loaded")
		return
	}
	// A decoded row carries no non-finite value (reqscan), only NaN for
	// an absent key; a caller's map is checked here.
	if req.decodedBy == nil {
		if err := ValidateFeatures(req.Features); err != nil {
			e.obs.invalid.Inc()
			e.fail(req, res, err.Error())
			return
		}
	}
	if f := e.cfg.InjectFault; f != nil {
		if err := f(req); err != nil {
			e.fail(req, res, err.Error())
			return
		}
	}
	vals := req.vals
	if req.decodedBy == nil {
		m.gather(req.Features, ws.vals)
		vals = ws.vals
	}
	m.fillRow(vals, ws.row)
	ws.mat.AppendRowValues(ws.row)
	ws.rows = append(ws.rows, i)
	ws.exp = append(ws.exp, nil)
}

// predictBatch runs the frontier sweep over the pooled matrix, then
// records the decision path of each explain row from its matrix row;
// the row's class still comes from the sweep. A panic is recovered
// here so a poisoned sweep fails its rows instead of unwinding the
// caller; the returned message is empty on success.
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
	for bi, i := range ws.rows {
		if ws.reqs[i].Explain {
			ws.mat.Row(bi, ws.row)
			ws.exp[bi] = m.bp.PredictRowExplain(ws.row)
		}
	}
	return ""
}

// fail answers one request with an error.
func (e *Engine) fail(req *Request, res *Result, msg string) {
	res.ID = req.ID
	res.Err = msg
	e.obs.errs.Inc()
}

// finish writes a successful sweep's results and records their stage
// latencies, all ending at end: normalize and predict as the sweep's
// per-row shares normD and predD, and total from the body's enqueue
// time, each once for the sweep. With a tracer, each request also
// records its span tree and its exemplars.
func (e *Engine) finish(m *Model, ws *batchScratch, normD, predD time.Duration, end time.Time) {
	n := uint64(len(ws.rows))
	queueD, totalD := ws.admitted.Sub(ws.enq), end.Sub(ws.enq)
	e.obs.normHist.ObserveN(normD.Seconds(), n)
	e.obs.predHist.ObserveN(predD.Seconds(), n)
	e.obs.totalHist.ObserveN(totalD.Seconds(), n)
	e.obs.requests.Add(n)

	// The engine measures stages on its own clock; a tracer's spans are
	// anchored on the tracer clock ending now.
	tr := e.cfg.Tracer
	traced, trEnd := tr.Enabled(), tr.Now()
	classes := m.bp.Classes()
	for bi, i := range ws.rows {
		req, res := &ws.reqs[i], &ws.res[i]
		label := classes[ws.idx[bi]]
		sev, cause := ParseClass(label)
		*res = Result{ID: req.ID, Class: label, Severity: sev, Cause: cause}
		if exp := ws.exp[bi]; exp != nil {
			res.Explain, res.Rule = exp, exp.Rule()
		}
		if !traced {
			continue
		}
		reqID := tr.RecordSpan("serve", "request", "id="+req.ID+" class="+label, 0, trEnd-totalD, totalD)
		tr.RecordSpan("serve", "queue", "", reqID, trEnd-totalD, queueD)
		tr.RecordSpan("serve", "normalize", "", reqID, trEnd-normD-predD, normD)
		tr.RecordSpan("serve", "predict", "", reqID, trEnd-predD, predD)
		tid := strconv.FormatUint(uint64(reqID), 16)
		res.TraceID = tid
		e.obs.queueHist.SetExemplar(queueD.Seconds(), tid)
		e.obs.normHist.SetExemplar(normD.Seconds(), tid)
		e.obs.predHist.SetExemplar(predD.Seconds(), tid)
		e.obs.totalHist.SetExemplar(totalD.Seconds(), tid)
	}
}

// obs bundles the engine's metric handles; names are documented in
// docs/SERVING.md.
//
// Accounting invariant (checked by internal/chaos and vqserve's drain):
// once the engine is drained, submitted == requests + errs. Shed rows
// are never admitted and are counted only in shed.
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
		submitted:   reg.Counter("vqserve_submitted_total", "rows admitted"),
		panics:      reg.Counter("vqserve_panics_recovered_total", "classification panics recovered"),
		invalid:     reg.Counter("vqserve_invalid_total", "requests rejected for non-finite feature values"),
		reloadFails: reg.Counter("vqserve_reload_failures_total", "model reload attempts that failed (engine degraded)"),
		inflight:    reg.Gauge("vqserve_inflight", "rows of DiagnoseBatch calls in progress"),
		modelNodes:  reg.Gauge("vqserve_model_nodes", "compiled nodes in the serving model"),
		modelLoad:   reg.Gauge("vqserve_model_load_seconds", "how long loading the serving model took"),
		queueHist:   stage("queue"),
		normHist:    stage("normalize"),
		predHist:    stage("predict"),
		totalHist:   stage("total"),
		batchSize: reg.Histogram("vqserve_batch_size", "rows per batch sweep",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
	}
}
