package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"

	"vqprobe/internal/reqscan"
)

// maxLine bounds one NDJSON request line (1 MiB).
const maxLine = 1 << 20

// lineBufs holds the 64 KiB buffers /diagnose bodies are read through.
// A fresh one per request was most of a single-row request's garbage,
// and the collections it drove lengthened the latency tail. Nothing
// keeps a slice of one past its request: the scanner copies out the id
// and the values it reads.
var lineBufs = sync.Pool{New: func() any { b := make([]byte, 64*1024); return &b }}

// slabs holds the per-body []float64 every decoded line's value slots
// are cut from, and outBufs the buffer answers are encoded into. Each
// goes back only after the body's batch has been answered, and
// DiagnoseBatch reads a row's slots before it returns.
var (
	slabs   = sync.Pool{New: func() any { return new([]float64) }}
	outBufs = sync.Pool{New: func() any { b := make([]byte, 0, flushAt+4096); return &b }}
)

// maxPooledSlab caps the slab kept for reuse (512 KiB); a rarer, larger
// body's slab is left to the collector.
const maxPooledSlab = 1 << 16

// flushAt is the encoded size at which /diagnose writes its buffer out.
const flushAt = 32 << 10

// Handler returns the engine's HTTP surface:
//
//	GET  /healthz   liveness + model summary (503 until a model is loaded)
//	GET  /metrics   Prometheus text exposition
//	POST /diagnose  NDJSON batch: one {"id","features"} object per line
//	                (add "explain":true for the decision path), one
//	                result object per line, input order preserved; a
//	                reqscan.FirstLineHeader value numbers the first line
//	                in per-line errors (vqroute sets it on each range)
//	POST /-/reload  re-run Config.ReloadFunc and hot-swap the model
//
// When Config.Tracer is set, GET /debug/trace dumps the span ring
// buffer — Chrome trace_event JSON by default (load it in Perfetto),
// NDJSON with ?format=ndjson.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", e.reg.Handler())
	mux.HandleFunc("/healthz", e.handleHealthz)
	mux.HandleFunc("/diagnose", e.handleDiagnose)
	mux.HandleFunc("/-/reload", e.handleReload)
	if e.cfg.Tracer != nil {
		mux.HandleFunc("/debug/trace", e.handleTrace)
	}
	return mux
}

func (e *Engine) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := e.cfg.Tracer
	if r.URL.Query().Get("format") == "ndjson" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		// Mid-response write errors mean the client hung up; the status
		// line is already gone, so there is nothing useful to send back.
		_ = tr.WriteNDJSON(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = tr.WriteChromeTrace(w)
}

func (e *Engine) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	m := e.model.Load()
	w.Header().Set("Content-Type", "application/json")
	if m == nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"status": "no model"})
		return
	}
	body := map[string]any{
		"status":         "ok",
		"task":           m.Task(),
		"features":       len(m.Schema()),
		"classes":        len(m.Classes()),
		"model":          m.Info(),
		"shards":         e.cfg.Shards,
		"uptime_seconds": int64(e.now().Sub(e.start).Seconds()),
	}
	// A failed reload leaves the engine answering from the last-good
	// snapshot: alive (200) but degraded, and /healthz says why.
	if msg := e.LastReloadError(); msg != "" {
		body["status"] = "degraded"
		body["last_reload_error"] = msg
	}
	if f := e.cfg.AlertsFunc; f != nil {
		body["alerts"] = f()
	}
	json.NewEncoder(w).Encode(body)
}

func (e *Engine) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST NDJSON to /diagnose", http.StatusMethodNotAllowed)
		return
	}
	first, err := reqscan.FirstLine(r.Header.Get(reqscan.FirstLineHeader))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	buf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(buf)
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(*buf, maxLine)

	// Decode every line first so one malformed line fails fast with a
	// per-line error instead of poisoning the whole batch. Each line is
	// scanned once for the features the current snapshot reads, into
	// that snapshot's slots, and every request is bound to it (see
	// Request.decodedBy).
	snap := &snapshotRef{m: e.model.Load()}
	var keys *reqscan.Keys
	if snap.m != nil {
		keys = snap.m.keys
	}
	width := keys.Len()
	slab := slabs.Get().(*[]float64)
	vals := (*slab)[:0]
	defer func() {
		if cap(vals) <= maxPooledSlab {
			*slab = vals[:0]
			slabs.Put(slab)
		}
	}()
	var (
		reqs   []Request
		bad    []lineError
		lineno = first - 1 // true input line number, blank lines included
	)
	for sc.Scan() {
		lineno++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		n := len(vals)
		vals = slices.Grow(vals, width)[:n+width]
		req, err := reqscan.Scan(line, keys, vals[n:])
		if err != nil {
			vals = vals[:n]
			bad = append(bad, lineError{before: len(reqs), msg: fmt.Sprintf("line %d: %v", lineno, err)})
			continue
		}
		reqs = append(reqs, Request{ID: req.ID, Explain: req.Explain, decodedBy: snap})
	}
	if err := sc.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(reqs)+len(bad) == 0 {
		http.Error(w, "empty request body", http.StatusBadRequest)
		return
	}
	// The slab has stopped growing: the k-th request's slots are its
	// k-th run of width values.
	for k := range reqs {
		reqs[k].vals = vals[k*width : (k+1)*width : (k+1)*width]
	}
	res := e.DiagnoseBatch(reqs)
	// The client may have hung up while the batch was in flight (the
	// server cancels the request context on disconnect). The engine
	// work is already done and accounted — results are simply not worth
	// serializing to a dead socket.
	if r.Context().Err() != nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	out := outBufs.Get().(*[]byte)
	defer outBufs.Put(out)
	b := (*out)[:0]
	defer func() { *out = b[:0] }()
	// put encodes one answer, writing the buffer out once it is large.
	// It reports false once the answer must stop: a write error means
	// the client went away, and a result that cannot be encoded ends
	// the answer after the ones before it, with no half-written line.
	put := func(r *Result) bool {
		var err error
		if b, err = appendResult(b, r); err == nil && len(b) < flushAt {
			return true
		}
		if _, werr := w.Write(b); werr != nil || err != nil {
			return false
		}
		b = b[:0]
		return true
	}
	// Answers go out in input order: a rejected line's error before
	// the answer of the first request after it.
	for i := 0; i <= len(res); i++ {
		for ; len(bad) > 0 && bad[0].before == i; bad = bad[1:] {
			if !put(&Result{Err: bad[0].msg}) {
				return
			}
		}
		if i < len(res) && !put(&res[i]) {
			return
		}
	}
	_, _ = w.Write(b) // an error means the client went away; there is no one to tell
}

// lineError is a /diagnose line the scanner rejected, answered in its
// place among the requests: before the one with index before.
type lineError struct {
	before int
	msg    string
}

func (e *Engine) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST to /-/reload", http.StatusMethodNotAllowed)
		return
	}
	if e.cfg.ReloadFunc == nil {
		http.Error(w, "no reload source configured", http.StatusNotImplemented)
		return
	}
	m, err := e.cfg.ReloadFunc()
	if err != nil {
		// Keep serving the last-good snapshot; /healthz turns degraded.
		e.NoteReloadError(err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	e.Reload(m)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"status": "reloaded", "features": len(m.Schema())})
}
