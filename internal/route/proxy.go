package route

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vqprobe/internal/reqscan"
)

// maxLine bounds one NDJSON line in either direction (1 MiB, matching
// vqserve's ingest bound). It also bounds every buffer kept for reuse:
// a larger one is left to the collector.
const maxLine = 1 << 20

// flushAt is the merged answer size at which /diagnose writes it out.
const flushAt = 32 << 10

// lineBufs holds the 64 KiB buffers client bodies are read through, as
// vqserve's handler does: a fresh one per body was most of a request's
// garbage. Nothing keeps a slice of one past its read: each accepted
// line is copied once, into its replica's sub-batch body.
var lineBufs = sync.Pool{New: func() any { b := make([]byte, 64*1024); return &b }}

// rowRef is one input row in flight: its slot in the merged response,
// its session ID, where its line starts in its sub-batch body, and, once
// a replica has answered it, where the answer line lies in that
// attempt's buffer.
type rowRef struct {
	slot   int
	id     string
	off    int
	lo, hi int
}

// batch is one /diagnose request's routing state: the merged answer's
// slots, one sub-batch per replica and the merge buffer. Batches are
// pooled. The slots point into the sub-batches' answer buffers, and the
// transport may still read a sub-batch body after its response
// arrived, so a batch goes back to the pool only when the handler is
// done with it and the transport has closed every body it was sent
// (refs counts both).
type batch struct {
	refs    atomic.Int32
	results [][]byte
	subs    []sub
	out     []byte
}

// sub is the rows a request routed to one replica: their lines, one
// after another in body, one answer buffer per attempt to serve them
// (more than one only after a failover), and the replicas tried.
type sub struct {
	rows    []rowRef
	body    []byte
	answers [][]byte
	tried   []bool
}

var batches = sync.Pool{New: func() any { return new(batch) }}

// maxPooledRows caps the per-row slices a pooled batch keeps; a rarer,
// larger request's are left to the collector.
const maxPooledRows = 1 << 16

// getBatch takes a batch from the pool, sized for a fleet of replicas,
// holding the caller's reference.
func getBatch(replicas int) *batch {
	b := batches.Get().(*batch)
	if len(b.subs) != replicas {
		b.subs = make([]sub, replicas)
		for i := range b.subs {
			b.subs[i].tried = make([]bool, replicas)
		}
	}
	b.refs.Store(1)
	return b
}

// release drops one reference; the last one returns the batch to its
// pool, keeping only buffers no larger than maxLine.
func (b *batch) release() {
	if b.refs.Add(-1) != 0 {
		return
	}
	clear(b.results)
	b.results = reuse(b.results, maxPooledRows)
	b.out = reuse(b.out, maxLine)
	for i := range b.subs {
		s := &b.subs[i]
		clear(s.rows)
		s.rows = reuse(s.rows, maxPooledRows)
		s.body = reuse(s.body, maxLine)
		kept := s.answers[:0]
		for _, a := range s.answers {
			if a = reuse(a, maxLine); a != nil {
				kept = append(kept, a)
			}
		}
		clear(s.answers[len(kept):])
		s.answers = kept
		clear(s.tried)
	}
	batches.Put(b)
}

// reuse empties s for the next request, or drops it when its capacity
// exceeds limit.
func reuse[T any](s []T, limit int) []T {
	if cap(s) > limit {
		return nil
	}
	return s[:0]
}

// sentBody is the unserved tail of a sub-batch body on its way to a
// replica. It holds a reference on its batch until the transport
// closes it, which may happen after the response has been read.
type sentBody struct {
	bytes.Reader
	b      *batch
	closed atomic.Bool
}

func (b *batch) send(body []byte) *sentBody {
	b.refs.Add(1)
	sb := &sentBody{b: b}
	sb.Reset(body)
	return sb
}

func (sb *sentBody) Close() error {
	if sb.closed.CompareAndSwap(false, true) {
		sb.b.release()
	}
	return nil
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

	b := getBatch(len(rt.reps))
	defer b.release()

	scanBuf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(scanBuf)
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(*scanBuf, maxLine)
	var (
		lineno  int
		rowsIn  int
		shedN   int
		shedMsg string
	)
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
			b.results = append(b.results, errLine("", fmt.Sprintf("line %d: %v", lineno, err)))
			continue
		}
		rowsIn++
		slot := len(b.results)
		b.results = append(b.results, nil)
		idx := rt.route(hdr.ID, 1, nil)
		if idx < 0 {
			shedN++
			if shedMsg == "" {
				shedMsg = "router overloaded: no replica with capacity; retry after " + rt.retryAfterSeconds() + "s"
			}
			b.results[slot] = errLine(hdr.ID, shedMsg)
			continue
		}
		s := &b.subs[idx]
		s.rows = append(s.rows, rowRef{slot: slot, id: hdr.ID, off: len(s.body)})
		s.body = append(append(s.body, line...), '\n')
	}
	if err := sc.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(b.results) == 0 {
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
	for idx := range b.subs {
		if len(b.subs[idx].rows) == 0 {
			continue
		}
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			rt.proxyRows(ctx, b, idx)
		}(idx)
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
	out := b.out[:0]
	defer func() { b.out = out }()
	for _, line := range b.results {
		if line == nil {
			// Defensive: every slot is answered exactly once above; an
			// unanswered one is a router bug, surfaced not hidden.
			line = errLine("", "internal: row lost by router")
		}
		out = append(append(out, line...), '\n')
		if len(out) < flushAt {
			continue
		}
		if _, err := w.Write(out); err != nil {
			// Dead client mid-merge: cancel any stragglers and stop.
			cancel()
			return
		}
		out = out[:0]
	}
	_, _ = w.Write(out) // an error means the client went away; there is no one to tell
}

// proxyRows drives sub-batch idx to completion: send, collect per-row
// answers, and on a mid-stream replica failure fail the *unserved* tail
// over to the least-loaded healthy peer — rows already answered stay
// answered, so every row the router acknowledged is classified exactly
// once regardless of how many replicas die on it.
func (rt *Router) proxyRows(ctx context.Context, b *batch, idx int) {
	s := &b.subs[idx]
	rows := s.rows
	for attempt := 0; ; attempt++ {
		s.tried[idx] = true
		rep := rt.reps[idx]
		served, reason := rt.sendBatch(ctx, rep, b, s, rows, attempt)
		if served == len(rows) {
			rt.noteServed(rep, len(rows))
			return
		}
		if served > 0 {
			rep.rowsC.Add(uint64(served))
		}
		// The rows are in body order and the answered ones a prefix, so
		// the unserved tail is a suffix of the body: sendBatch resends
		// it from rows[0].off without copying.
		rows = rows[served:]
		if ctx.Err() != nil {
			// The downstream client is gone (or the batch was aborted):
			// not a replica fault, so no failure accounting and no
			// failover — just answer the slots for the merge's
			// invariant and stop.
			for _, rw := range rows {
				b.results[rw.slot] = errLine(rw.id, "request canceled")
			}
			return
		}
		rt.noteFailure(rep, reason)
		rt.obs.failovers.Inc()
		rt.logf("failover", "from", rep.url, "rows", len(rows), "reason", reason)
		next := rt.route("", len(rows), func(i int) bool { return s.tried[i] })
		if next < 0 {
			for _, rw := range rows {
				b.results[rw.slot] = errLine(rw.id, "no healthy replica available: "+reason)
			}
			rt.obs.shed.Add(uint64(len(rows)))
			return
		}
		idx = next
	}
}

// sendBatch posts rows, a tail of sub-batch s, to a replica and maps its
// NDJSON answer lines back onto the rows' slots, in order — vqserve
// preserves input order, which is what makes the k-th answer line the
// k-th row's. The answer is read into the attempt's own buffer, and the
// slots are sliced out of it once it has stopped growing. It returns
// how many rows were answered and, when not all were, why.
func (rt *Router) sendBatch(ctx context.Context, rep *replica, b *batch, s *sub, rows []rowRef, attempt int) (int, string) {
	n := int64(len(rows))
	rep.inflight.Add(n)
	rep.inflightG.Set(float64(rep.inflight.Load()))
	defer func() {
		rep.inflight.Add(-n)
		rep.inflightG.Set(float64(rep.inflight.Load()))
	}()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/diagnose", nil)
	if err != nil {
		return 0, err.Error()
	}
	tail := s.body[rows[0].off:]
	req.Body, req.ContentLength = b.send(tail), int64(len(tail))
	// The transport replays a request whose connection went stale
	// before anything was written only when it can get the body again.
	req.GetBody = func() (io.ReadCloser, error) { return b.send(tail), nil }
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, fmt.Sprintf("replica HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	for len(s.answers) <= attempt {
		s.answers = append(s.answers, nil)
	}
	ans, served, err := readAnswer(resp.Body, s.answers[attempt][:0], rows)
	s.answers[attempt] = ans
	for _, rw := range rows[:served] {
		b.results[rw.slot] = ans[rw.lo:rw.hi:rw.hi]
	}
	if err != nil {
		return served, fmt.Sprintf("response stream broke after %d of %d rows: %v", served, len(rows), err)
	}
	if served < len(rows) {
		return served, fmt.Sprintf("replica answered %d of %d rows", served, len(rows))
	}
	return served, ""
}

// readAnswer reads a replica's answer into buf and marks the bounds of
// its k-th non-blank line on rows[k], reading lines the way
// bufio.ScanLines does (one trailing CR dropped). It returns the grown
// buffer and how many rows were answered. A line answers its row only
// once its newline arrived, or when the stream ended cleanly after it:
// a line cut by a broken stream is part of the unserved tail. Lines
// past the last row are read, so the connection can be reused, and
// ignored. A line and its newline, with any blank or surplus lines
// before it, must fit in the maxLine bytes after the last answer line.
func readAnswer(r io.Reader, buf []byte, rows []rowRef) ([]byte, int, error) {
	served := 0
	start, from := 0, 0 // the first incomplete line, and where its newline search resumes
	answered := 0       // the end of the last answer line, its newline included
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(cap(buf), 4096))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		for {
			nl := bytes.IndexByte(buf[from:], '\n')
			if nl < 0 {
				from = len(buf)
				break
			}
			end := from + nl
			from = end + 1
			if from-answered > maxLine {
				err = bufio.ErrTooLong
				break
			}
			if served < len(rows) && markLine(buf, start, end, &rows[served]) {
				served++
				answered = from
			}
			start = from
		}
		if err == nil && len(buf)-answered >= maxLine {
			err = bufio.ErrTooLong
		}
		if err == io.EOF {
			// A clean end completes the last line.
			if served < len(rows) && len(buf)-answered <= maxLine && markLine(buf, start, len(buf), &rows[served]) {
				served++
			}
			return buf, served, nil
		}
		if err != nil {
			if served == len(rows) {
				return buf, served, nil
			}
			return buf, served, err
		}
	}
}

// markLine records buf[start:end] as rw's answer, less one trailing CR,
// and reports false for a blank line.
func markLine(buf []byte, start, end int, rw *rowRef) bool {
	if end > start && buf[end-1] == '\r' {
		end--
	}
	if end == start {
		return false
	}
	rw.lo, rw.hi = start, end
	return true
}
