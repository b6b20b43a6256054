package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vqprobe/internal/metrics"
	"vqprobe/internal/ml/c45"
	"vqprobe/internal/route"
	"vqprobe/internal/serve"
	"vqprobe/internal/trace"
)

// replayRows is how many rows of the workload's request sequence the
// in-process replay sends through each layer.
const replayRows = 1000

// passBudget is how long each layer pass repeats; the median rep counts.
const passBudget = 200 * time.Millisecond

// sink keeps the compiler from discarding calls whose results the
// replay does not otherwise use.
var sink any

// reps repeats rep until passBudget of wall time is spent and returns
// the median of each duration it measured.
func reps(rep func() []time.Duration) []time.Duration {
	var runs [][]time.Duration
	for start := time.Now(); time.Since(start) < passBudget || len(runs) == 0; {
		runs = append(runs, rep())
	}
	out := make([]time.Duration, len(runs[0]))
	for i := range out {
		xs := make([]float64, len(runs))
		for j, r := range runs {
			xs[j] = float64(r[i])
		}
		out[i] = time.Duration(median(xs))
	}
	return out
}

// timed runs f once as a warm-up recorded as one span on track, then
// returns its median untraced duration.
func timed(tr *trace.Tracer, parent trace.SpanID, track, name string, f func()) time.Duration {
	sp := tr.StartSpan(track, name, parent)
	f()
	sp.End()
	return reps(func() []time.Duration {
		t0 := time.Now()
		f()
		return []time.Duration{time.Since(t0)}
	})[0]
}

// allocs counts the heap allocations f makes, across all goroutines.
func allocs(f func()) (n, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// capture is a minimal in-memory http.ResponseWriter.
type capture struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (c *capture) reset()              { c.h, c.status = http.Header{}, http.StatusOK; c.body.Reset() }
func (c *capture) Header() http.Header { return c.h }
func (c *capture) WriteHeader(s int)   { c.status = s }
func (c *capture) Write(b []byte) (int, error) {
	return c.body.Write(b)
}

// layerRun is what the replay measured: per-layer metrics and the
// in-process cost per row of the top layer (the one whose daemon CPU
// process.overhead_ns_per_row is compared against).
type layerRun struct {
	m   map[string]value
	top float64
}

// replay sends the first replayRows rows of the workload's request
// sequence through each layer's public entry point in turn, bottom up,
// and derives each layer's self time per row as its time minus the time
// of the layer below on the same rows. One warm-up rep of every pass is
// recorded in tr; the numbers come from untraced reps.
func replay(g *requestGen, wl workload, tr *trace.Tracer, parent trace.SpanID) (*layerRun, error) {
	c, model := g.c, g.c.model
	bp := model.Predictor()
	var reqs [][]row
	var bodies [][]byte
	var flat []row
	var reqBytes int
	for k := int64(0); len(flat) < replayRows; k++ {
		rows := g.request(k, nil)
		reqs = append(reqs, rows)
		bodies = append(bodies, g.body(nil, k, rows))
		flat = append(flat, rows...)
		reqBytes += len(bodies[k])
	}
	n := float64(len(flat))
	perRow := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }

	// c45: the compiled predictor on 32-row matrices of rows normalized
	// the offline way (Normalizer.ApplyVector), which must agree with the
	// oracle row for row.
	var mats []*c45.Matrix
	var schemaRows [][]float64
	for i := 0; i < len(flat); i += 32 {
		m := bp.NewMatrix(32)
		for _, r := range flat[i:min(i+32, len(flat))] {
			m.AppendVector(c.norm.ApplyVector(c.fvs[r.sess]))
		}
		idx := make([]int32, m.Rows())
		var bs c45.BatchScratch
		bp.PredictBatchIdx(m, &bs, idx)
		for j := range idx {
			if got, want := bp.Classes()[idx[j]], c.class[flat[i+j].sess]; got != want {
				return nil, fmt.Errorf("c45 batch path answered %s for row %d, oracle %s", got, i+j, want)
			}
			sr := make([]float64, len(m.Schema()))
			m.Row(j, sr)
			schemaRows = append(schemaRows, sr)
		}
		mats = append(mats, m)
	}
	idx := make([]int32, 32)
	var bs c45.BatchScratch
	c45D := timed(tr, parent, "c45", "PredictBatchIdx", func() {
		for _, m := range mats {
			bp.PredictBatchIdx(m, &bs, idx[:m.Rows()])
		}
	})
	rowD := timed(tr, parent, "c45", "PredictRow", func() {
		for _, r := range schemaRows {
			sink = bp.PredictRow(r)
		}
	})
	diagD := timed(tr, parent, "serve.model", "Diagnose", func() {
		for _, r := range flat {
			sink = model.Diagnose(c.fvs[r.sess])
		}
	})
	explD := timed(tr, parent, "serve.model", "DiagnoseExplain", func() {
		for _, r := range flat {
			sink = model.DiagnoseExplain(c.fvs[r.sess])
		}
	})
	// What the engine calls per row: the explain path only where the
	// request asked for it.
	mixD := timed(tr, parent, "serve.model", "Diagnose as requested", func() {
		for _, r := range flat {
			if r.explain {
				sink = model.DiagnoseExplain(c.fvs[r.sess])
			} else {
				sink = model.Diagnose(c.fvs[r.sess])
			}
		}
	})

	// serve.engine: the batching pipeline on the requests as decoded.
	eng := serve.NewEngine(model, serve.Config{Shards: 1})
	defer eng.Close()
	sreqs := make([][]serve.Request, len(reqs))
	for k, rows := range reqs {
		for i, r := range rows {
			sreqs[k] = append(sreqs[k], serve.Request{ID: string(appendID(nil, int64(k), i, r)),
				Features: c.fvs[r.sess], Explain: r.explain})
		}
	}
	engine := func(tr *trace.Tracer, parent trace.SpanID) time.Duration {
		t0 := time.Now()
		for _, rq := range sreqs {
			s := tr.Now()
			sink = eng.DiagnoseBatch(rq)
			tr.RecordSpan("serve.engine", "DiagnoseBatch", "", parent, s, tr.Now()-s)
		}
		return time.Since(t0)
	}
	sp := tr.StartSpan("serve.engine", "pass", parent)
	engine(tr, sp.ID())
	sp.End()
	engD := reps(func() []time.Duration { return []time.Duration{engine(nil, 0)} })[0]
	scratch := trace.New(trace.Config{Capacity: len(sreqs) + 1})
	engOnD := reps(func() []time.Duration {
		scratch.Reset()
		return []time.Duration{engine(scratch, 0)}
	})[0]
	engAllocs, engBytes := allocs(func() { engine(nil, 0) })

	// serve.http: the /diagnose handler, NDJSON decode and encode included.
	h := eng.Handler()
	var w capture
	var failed int
	httpPass := func(tr *trace.Tracer, parent trace.SpanID, check bool) (time.Duration, int) {
		var total time.Duration
		resp := 0
		for k, b := range bodies {
			req := httptest.NewRequest(http.MethodPost, "/diagnose", bytes.NewReader(b))
			w.reset()
			s := tr.Now()
			t0 := time.Now()
			h.ServeHTTP(&w, req)
			total += time.Since(t0)
			tr.RecordSpan("serve.http", "ServeHTTP", "", parent, s, tr.Now()-s)
			resp += w.body.Len()
			if check {
				f, _ := g.check(int64(k), reqs[k], w.status, w.body.Bytes())
				failed += f
			}
		}
		return total, resp
	}
	sp = tr.StartSpan("serve.http", "pass", parent)
	_, respBytes := httpPass(tr, sp.ID(), true)
	sp.End()
	if failed > 0 {
		return nil, fmt.Errorf("in-process /diagnose handler answered %d of %d rows wrongly", failed, len(flat))
	}
	httpD := reps(func() []time.Duration {
		d, _ := httpPass(nil, 0, false)
		return []time.Duration{d}
	})[0]
	built := make([]*http.Request, len(bodies))
	for k, b := range bodies {
		built[k] = httptest.NewRequest(http.MethodPost, "/diagnose", bytes.NewReader(b))
	}
	httpAllocs, httpBytes := allocs(func() {
		for _, req := range built {
			w.reset()
			h.ServeHTTP(&w, req)
		}
	})

	routeSelf, routeTotal, err := replayRoute(g, reqs, bodies, tr, parent)
	if err != nil {
		return nil, err
	}

	lr := &layerRun{m: map[string]value{
		"c45.predict_ns_per_row":         {perRow(c45D), "ns/row"},
		"serve.normalize_ns_per_row":     {perRow(diagD - rowD), "ns/row"},
		"serve.explain_ns_per_row":       {perRow(explD - diagD), "ns/row"},
		"serve.engine_ns_per_row":        {perRow(engD - mixD), "ns/row"},
		"serve.http_ns_per_row":          {perRow(httpD - engD), "ns/row"},
		"serve.http.allocs_per_row":      {(float64(httpAllocs) - float64(engAllocs)) / n, "allocs/row"},
		"serve.http.alloc_bytes_per_row": {(float64(httpBytes) - float64(engBytes)) / n, "B/row"},
		"serve.http.req_bytes_per_row":   {float64(reqBytes) / n, "B/row"},
		"serve.http.resp_bytes_per_row":  {float64(respBytes) / n, "B/row"},
		"route_ns_per_row":               {perRow(routeSelf), "ns/row"},
		"trace.overhead_ratio":           {float64(engOnD) / float64(engD), "ratio"},
	}, top: perRow(httpD)}
	if wl.router {
		lr.top = perRow(routeTotal)
	}
	return lr, nil
}

// replayRoute sends the bodies through route.Router's handler in front
// of two in-process engines on httptest loopback servers. The router's
// self time is each call's duration minus the part of it covered by at
// least one replica handler (the replica-side serve.http spans).
func replayRoute(g *requestGen, reqs [][]row, bodies [][]byte, tr *trace.Tracer, parent trace.SpanID) (self, total time.Duration, err error) {
	epoch := time.Now()
	var (
		mu      sync.Mutex
		covered [][2]time.Duration
		cur     atomic.Uint64                // span the replica spans belong to
		rtr     atomic.Pointer[trace.Tracer] // tracer of the current rep, nil when untraced
	)
	var urls []string
	for i := 0; i < 2; i++ {
		eng := serve.NewEngine(g.c.model, serve.Config{Shards: 1})
		defer eng.Close()
		h := eng.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t := rtr.Load()
			s, ts := time.Since(epoch), t.Now()
			h.ServeHTTP(w, r)
			e := time.Since(epoch)
			t.RecordSpan("serve.http", "replica ServeHTTP", "", trace.SpanID(cur.Load()), ts, t.Now()-ts)
			mu.Lock()
			covered = append(covered, [2]time.Duration{s, e})
			mu.Unlock()
		}))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	rt, err := route.New(route.Config{Replicas: urls, Registry: metrics.NewRegistry(), Clock: time.Now})
	if err != nil {
		return 0, 0, err
	}
	rh := rt.Handler()
	var w capture
	var failed int
	pass := func(tr *trace.Tracer, parent trace.SpanID, check bool) []time.Duration {
		rtr.Store(tr)
		var self, total time.Duration
		for k, b := range bodies {
			req := httptest.NewRequest(http.MethodPost, "/diagnose", bytes.NewReader(b))
			w.reset()
			mu.Lock()
			covered = covered[:0]
			mu.Unlock()
			sp := tr.StartSpan("route", "ServeHTTP", parent)
			cur.Store(uint64(sp.ID()))
			s := time.Since(epoch)
			rh.ServeHTTP(&w, req)
			e := time.Since(epoch)
			sp.End()
			mu.Lock()
			cov := union(covered, s, e)
			mu.Unlock()
			self += e - s - cov
			total += e - s
			if check {
				f, _ := g.check(int64(k), reqs[k], w.status, w.body.Bytes())
				failed += f
			}
		}
		return []time.Duration{self, total}
	}
	sp := tr.StartSpan("route", "pass", parent)
	pass(tr, sp.ID(), true)
	sp.End()
	if failed > 0 {
		return 0, 0, fmt.Errorf("in-process router answered %d rows wrongly", failed)
	}
	m := reps(func() []time.Duration { return pass(nil, 0, false) })
	return m[0], m[1], nil
}

// union is how much of [from, to] the intervals cover together.
func union(ivs [][2]time.Duration, from, to time.Duration) time.Duration {
	sorted := append([][2]time.Duration(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var cov, end time.Duration
	end = from
	for _, iv := range sorted {
		s, e := max(iv[0], end), min(iv[1], to)
		if e > s {
			cov += e - s
			end = e
		}
	}
	return cov
}
