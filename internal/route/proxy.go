package route

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"vqprobe/internal/reqscan"
)

// maxLine bounds one NDJSON line in either direction (1 MiB, matching
// vqserve's ingest bound).
const maxLine = 1 << 20

// lineBufs holds the 64 KiB buffers client bodies and replica answers
// are read through, as vqserve's handler does: a fresh one per body was
// most of a request's garbage. Nothing keeps a slice of one past its
// read: request lines are copied into their rowRef, answer lines into
// results.
var lineBufs = sync.Pool{New: func() any { b := make([]byte, 64*1024); return &b }}

// rowRef is one input row in flight: its slot in the merged response
// and the raw line forwarded verbatim to whichever replica serves it.
type rowRef struct {
	slot int
	id   string
	line []byte
}

// errLine renders the router's own per-row answer in the same NDJSON
// shape replicas use, so clients never see two result dialects.
func errLine(id, msg string) []byte {
	b, err := json.Marshal(struct {
		ID  string `json:"id,omitempty"`
		Err string `json:"error"`
	}{ID: id, Err: msg})
	if err != nil {
		// Marshal of two strings cannot fail; keep the row answered anyway.
		return []byte(`{"error":"internal: unrenderable error"}`)
	}
	return b
}

// Handler returns the router's HTTP surface:
//
//	POST /diagnose   NDJSON batch: rows fan out to replicas by session
//	                 ID (sticky consistent hash, least-loaded fallback),
//	                 answers merge back in input order
//	GET  /healthz    router + per-replica state summary
//	GET  /metrics    Prometheus text exposition
//	POST /-/rollout  staged model rollout across the fleet (?hash=
//	                 pins the expected snapshot hash)
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/diagnose", rt.handleDiagnose)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.Handle("/metrics", rt.reg.Handler())
	mux.HandleFunc("/-/rollout", rt.handleRollout)
	return mux
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	sts := rt.Statuses()
	var healthy, degraded, down int
	for _, s := range sts {
		switch s.State {
		case "healthy":
			healthy++
		case "degraded":
			degraded++
		case "down":
			down++
		}
	}
	status, code := "ok", http.StatusOK
	switch {
	case down == len(sts):
		status, code = "down", http.StatusServiceUnavailable
	case degraded+down > 0:
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":   status,
		"healthy":  healthy,
		"degraded": degraded,
		"down":     down,
		"replicas": sts,
	})
}

// retryAfterSeconds renders the Retry-After hint, rounding up so a
// sub-second configuration never advertises "0".
func (rt *Router) retryAfterSeconds() string {
	secs := (rt.cfg.RetryAfter + time.Second - 1) / time.Second
	return strconv.FormatInt(int64(secs), 10)
}

func (rt *Router) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST NDJSON to /diagnose", http.StatusMethodNotAllowed)
		return
	}
	rt.obs.requests.Inc()

	// Fleet-wide outage answers before any routing work: there is no
	// capacity problem to back off from, the tier is simply gone.
	anyRoutable := false
	for _, rep := range rt.reps {
		if rep.routable() {
			anyRoutable = true
			break
		}
	}
	if !anyRoutable {
		http.Error(w, "no replica available: entire fleet is down", http.StatusServiceUnavailable)
		return
	}

	// The shared context ties every upstream sub-request to the
	// downstream client: an aborted client write (or disconnect — the
	// server cancels r.Context() then) cancels all in-flight replica
	// requests instead of leaking them.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	var t0 time.Time
	if rt.cfg.Clock != nil {
		t0 = rt.cfg.Clock()
	}

	scanBuf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(scanBuf)
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(*scanBuf, maxLine)
	var (
		results [][]byte
		perRep  = make([][]rowRef, len(rt.reps))
		lineno  int
		rowsIn  int
		shedN   int
	)
	shedMsg := "router overloaded: no replica with capacity; retry after " + rt.retryAfterSeconds() + "s"
	for sc.Scan() {
		lineno++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		// The replicas' own scanner, reading only the id: a line it
		// rejects would fail at the replica too, and answering it here
		// keeps true input line numbers, which sub-batches would
		// otherwise renumber.
		hdr, err := reqscan.Scan(line, nil, nil)
		if err != nil {
			results = append(results, errLine("", fmt.Sprintf("line %d: %v", lineno, err)))
			continue
		}
		rowsIn++
		slot := len(results)
		results = append(results, nil)
		idx := rt.route(hdr.ID, 1, nil)
		if idx < 0 {
			shedN++
			results[slot] = errLine(hdr.ID, shedMsg)
			continue
		}
		perRep[idx] = append(perRep[idx], rowRef{slot: slot, id: hdr.ID, line: append([]byte(nil), line...)})
	}
	if err := sc.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(results) == 0 {
		http.Error(w, "empty request body", http.StatusBadRequest)
		return
	}
	rt.obs.rows.Add(uint64(rowsIn))
	if shedN > 0 {
		rt.obs.shed.Add(uint64(shedN))
	}

	// Backpressure propagation: a batch the router could not place at
	// all is one HTTP-level rejection with a backoff hint, not a retry
	// storm into saturated queues.
	if rowsIn > 0 && shedN == rowsIn {
		w.Header().Set("Retry-After", rt.retryAfterSeconds())
		http.Error(w, shedMsg, http.StatusTooManyRequests)
		return
	}

	var wg sync.WaitGroup
	for idx := range perRep {
		if len(perRep[idx]) == 0 {
			continue
		}
		wg.Add(1)
		go func(idx int, rows []rowRef) {
			defer wg.Done()
			rt.proxyRows(ctx, idx, rows, results)
		}(idx, perRep[idx])
	}
	wg.Wait()

	if rt.cfg.Clock != nil {
		rt.obs.proxyHist.Observe(rt.cfg.Clock().Sub(t0).Seconds())
	}
	// Client hung up while the fleet was answering: the upstream
	// requests were canceled with it, and there is no socket worth
	// serializing to.
	if r.Context().Err() != nil {
		return
	}
	if shedN > 0 {
		w.Header().Set("Retry-After", rt.retryAfterSeconds())
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	for i := range results {
		line := results[i]
		if line == nil {
			// Defensive: every slot is answered exactly once above; an
			// unanswered one is a router bug, surfaced not hidden.
			line = errLine("", "internal: row lost by router")
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			// Dead client mid-merge: cancel any stragglers and stop.
			cancel()
			return
		}
	}
}

// proxyRows drives one replica sub-batch to completion: send, collect
// per-row answers, and on a mid-stream replica failure fail the
// *unserved* tail over to the least-loaded healthy peer — rows already
// answered stay answered, so every row the router acknowledged is
// classified exactly once regardless of how many replicas die on it.
func (rt *Router) proxyRows(ctx context.Context, idx int, rows []rowRef, results [][]byte) {
	tried := make([]bool, len(rt.reps))
	for {
		tried[idx] = true
		rep := rt.reps[idx]
		unserved, reason := rt.sendBatch(ctx, rep, rows, results)
		if len(unserved) == 0 {
			rt.noteServed(rep, len(rows))
			return
		}
		if served := len(rows) - len(unserved); served > 0 {
			rep.rowsC.Add(uint64(served))
		}
		rows = unserved
		if ctx.Err() != nil {
			// The downstream client is gone (or the batch was aborted):
			// not a replica fault, so no failure accounting and no
			// failover — just answer the slots for the merge's
			// invariant and stop.
			for _, rw := range rows {
				results[rw.slot] = errLine(rw.id, "request canceled")
			}
			return
		}
		rt.noteFailure(rep, reason)
		rt.obs.failovers.Inc()
		rt.logf("failover", "from", rep.url, "rows", len(rows), "reason", reason)
		next := rt.route("", len(rows), func(i int) bool { return tried[i] })
		if next < 0 {
			for _, rw := range rows {
				results[rw.slot] = errLine(rw.id, "no healthy replica available: "+reason)
			}
			rt.obs.shed.Add(uint64(len(rows)))
			return
		}
		idx = next
	}
}

// sendBatch posts one sub-batch to a replica and maps its NDJSON
// answer lines back onto the rows' slots, in order — vqserve preserves
// input order, which is what makes the k-th answer line the k-th
// row's. It returns the unserved tail (empty on success) and the
// failure reason.
func (rt *Router) sendBatch(ctx context.Context, rep *replica, rows []rowRef, results [][]byte) ([]rowRef, string) {
	n := int64(len(rows))
	rep.inflight.Add(n)
	rep.inflightG.Set(float64(rep.inflight.Load()))
	defer func() {
		rep.inflight.Add(-n)
		rep.inflightG.Set(float64(rep.inflight.Load()))
	}()

	var buf bytes.Buffer
	for _, rw := range rows {
		buf.Write(rw.line)
		buf.WriteByte('\n')
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/diagnose", &buf)
	if err != nil {
		return rows, err.Error()
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := rt.client.Do(req)
	if err != nil {
		return rows, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return rows, fmt.Sprintf("replica HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	scanBuf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(scanBuf)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(*scanBuf, maxLine)
	served := 0
	for served < len(rows) && sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		results[rows[served].slot] = append([]byte(nil), line...)
		served++
	}
	if err := sc.Err(); err != nil {
		return rows[served:], fmt.Sprintf("response stream broke after %d of %d rows: %v", served, len(rows), err)
	}
	if served < len(rows) {
		return rows[served:], fmt.Sprintf("replica answered %d of %d rows", served, len(rows))
	}
	return nil, ""
}
