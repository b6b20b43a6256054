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
// vqserve's ingest bound): a line and its newline must fit in it. It
// also bounds every buffer kept for reuse: a larger one is left to the
// collector.
const maxLine = 1 << 20

// flushAt is the merged answer size at which /diagnose writes it out.
const flushAt = 32 << 10

// batch is one /diagnose request's routing state: the client body,
// read once, the ranges of it sent to replicas, and the merge buffer.
// Batches are pooled. The transport may still read a range after its
// response arrived, so a batch goes back to the pool only when the
// handler is done with it and the transport has closed every body it
// was sent (refs counts both).
type batch struct {
	refs  atomic.Int32
	body  []byte
	spans []span
	cands []cand
	out   []byte
	// shedAt is where the rows no replica had room for start in body,
	// and shedLine that line's input line number.
	shedAt, shedLine int
}

// span is one contiguous range of the client body, blank lines
// included, sent to one replica; after a failure its unserved rest is
// resent to another. It holds one answer buffer per attempt, each
// holding whole answer lines, so the range's answer is their
// concatenation, followed by the router's own answers to any rows no
// replica served.
type span struct {
	rep     int // the replica first sent the range
	rows    int // non-blank lines in it
	lo, hi  int // its bytes in the body
	line    int // the input line number of its first line
	answers [][]byte
	tried   []bool
	// rest is where the rows the router answers itself start, restLine
	// that line's number and restMsg the answer; restMsg is "" when
	// replicas answered every row.
	rest, restLine int
	restMsg        string
}

var batches = sync.Pool{New: func() any { return new(batch) }}

// getBatch takes a batch from the pool, sized for a fleet of replicas,
// holding the caller's reference.
func getBatch(replicas int) *batch {
	b := batches.Get().(*batch)
	if cap(b.spans) != replicas {
		b.spans = make([]span, replicas)
		for i := range b.spans {
			b.spans[i].tried = make([]bool, replicas)
		}
		b.cands = make([]cand, 0, replicas)
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
	b.body = reuse(b.body, maxLine)
	b.out = reuse(b.out, maxLine)
	all := b.spans[:cap(b.spans)]
	for i := range all {
		sp := &all[i]
		for k, a := range sp.answers {
			sp.answers[k] = reuse(a, maxLine)
		}
		clear(sp.tried)
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

// sentBody is a range of the client body on its way to a replica. It
// holds a reference on its batch until the transport closes it, which
// may happen after the response has been read.
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

// lineEnd returns where the line at off ends (at its newline, or at
// the end of the body) and where the next line starts.
func lineEnd(body []byte, off int) (end, next int) {
	if nl := bytes.IndexByte(body[off:], '\n'); nl >= 0 {
		return off + nl, off + nl + 1
	}
	return len(body), len(body)
}

// blank reports whether a line holds nothing once one trailing CR is
// dropped, as bufio.ScanLines reads it.
func blank(line []byte) bool { return len(line) == 0 || len(line) == 1 && line[0] == '\r' }

// countRows counts a body's non-blank lines, refusing a line that
// would not fit, with its newline, in maxLine bytes.
func countRows(body []byte) (int, error) {
	rows := 0
	for off := 0; off < len(body); {
		end, next := lineEnd(body, off)
		if end-off >= maxLine {
			return 0, bufio.ErrTooLong
		}
		if !blank(body[off:end]) {
			rows++
		}
		off = next
	}
	return rows, nil
}

// skipRows steps past k non-blank lines from off, the start of input
// line lineno, and returns the offset and line number just after the
// k-th.
func skipRows(body []byte, off, lineno, k int) (int, int) {
	for ; k > 0 && off < len(body); lineno++ {
		end, next := lineEnd(body, off)
		if !blank(body[off:end]) {
			k--
		}
		off = next
	}
	return off, lineno
}

// appendErrLines answers the rows of lines, the first of which is input
// line lineno, with msg, in the NDJSON shape replicas use. The router
// answers a row itself only when no replica will: it was shed, every
// replica failed on it, or the client went away. A line a replica
// would reject gets the replica's own error, with its true line
// number. This is the only place the router parses a line.
func appendErrLines(out, lines []byte, lineno int, msg string) []byte {
	for off := 0; off < len(lines); lineno++ {
		end, next := lineEnd(lines, off)
		if line := lines[off:end]; !blank(line) {
			hdr, err := reqscan.Scan(bytes.TrimSuffix(line, []byte{'\r'}), nil, nil)
			if err != nil {
				out = appendErrLine(out, "", fmt.Sprintf("line %d: %v", lineno, err))
			} else {
				out = appendErrLine(out, hdr.ID, msg)
			}
		}
		off = next
	}
	return out
}

// appendErrLine renders one router-made answer line in the NDJSON shape
// replicas use, so clients never see two result dialects.
func appendErrLine(out []byte, id, msg string) []byte {
	b, err := json.Marshal(struct {
		ID  string `json:"id,omitempty"`
		Err string `json:"error"`
	}{ID: id, Err: msg})
	if err != nil {
		// Marshal of two strings cannot fail; keep the row answered anyway.
		b = []byte(`{"error":"internal: unrenderable error"}`)
	}
	return append(append(out, b...), '\n')
}

// Handler returns the router's HTTP surface:
//
//	POST /diagnose   NDJSON batch: the body splits into contiguous line
//	                 ranges, one per replica with room, and the answers
//	                 merge back in input order
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

	body := bytes.NewBuffer(b.body)
	_, err := body.ReadFrom(r.Body)
	if b.body = body.Bytes(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rows, err := countRows(b.body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if rows == 0 {
		http.Error(w, "empty request body", http.StatusBadRequest)
		return
	}
	rt.obs.rows.Add(uint64(rows))
	shed := rows - rt.split(b, rows)
	var shedMsg string
	if shed > 0 {
		rt.obs.shed.Add(uint64(shed))
		shedMsg = "router overloaded: no replica with capacity; retry after " + rt.retryAfterSeconds() + "s"
	}

	// Backpressure propagation: a batch the router could not place at
	// all is one HTTP-level rejection with a backoff hint, not a retry
	// storm into saturated queues.
	if shed == rows {
		w.Header().Set("Retry-After", rt.retryAfterSeconds())
		http.Error(w, shedMsg, http.StatusTooManyRequests)
		return
	}

	// The first range is proxied on this goroutine, the others on their
	// own.
	var wg sync.WaitGroup
	for i := 1; i < len(b.spans); i++ {
		wg.Add(1)
		go func(sp *span) {
			defer wg.Done()
			rt.proxySpan(ctx, b, sp)
		}(&b.spans[i])
	}
	rt.proxySpan(ctx, b, &b.spans[0])
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
	if shed > 0 {
		w.Header().Set("Retry-After", rt.retryAfterSeconds())
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Each range's answer follows the one before it, and the shed rows
	// close the body, so the answers come out in input order.
	out := b.out[:0]
	defer func() { b.out = out }()
	flushed := func() bool {
		if len(out) < flushAt {
			return true
		}
		if _, err := w.Write(out); err != nil {
			// Dead client mid-merge: cancel any stragglers and stop.
			cancel()
			return false
		}
		out = out[:0]
		return true
	}
	for i := range b.spans {
		sp := &b.spans[i]
		for _, a := range sp.answers {
			if out = append(out, a...); !flushed() {
				return
			}
		}
		if sp.restMsg != "" {
			if out = appendErrLines(out, b.body[sp.rest:sp.hi], sp.restLine, sp.restMsg); !flushed() {
				return
			}
		}
	}
	if shed > 0 {
		out = appendErrLines(out, b.body[b.shedAt:], b.shedLine, shedMsg)
	}
	_, _ = w.Write(out) // an error means the client went away; there is no one to tell
}

// split divides a body's rows into b.spans: contiguous ranges, one per
// replica with room, the first to the replica with the fewest inflight
// rows (see pick). Shares are even, each capped by its replica's room.
// It returns how many rows the ranges hold; the rows after them are
// shed, from b.shedAt on.
func (rt *Router) split(b *batch, rows int) int {
	cands := rt.pick(b.cands[:0])
	b.cands = cands
	room := 0
	for _, c := range cands {
		room += c.room
	}
	routed := min(rows, room)
	// Fill the smallest rooms first, so a share a replica cannot take
	// moves to the roomier ones before it.
	left := routed
	for i := len(cands) - 1; i >= 0; i-- {
		cands[i].rows = min(cands[i].room, left/(i+1))
		left -= cands[i].rows
	}
	b.spans = b.spans[:0]
	off, lineno := 0, 1
	for _, c := range cands {
		if c.rows == 0 {
			continue
		}
		b.spans = b.spans[:len(b.spans)+1]
		sp := &b.spans[len(b.spans)-1]
		*sp = span{rep: c.idx, rows: c.rows, lo: off, line: lineno, answers: sp.answers, tried: sp.tried}
		off, lineno = skipRows(b.body, off, lineno, c.rows)
		sp.hi = off
	}
	b.shedAt, b.shedLine = off, lineno
	return routed
}

// proxySpan drives one range to completion: send, collect its answer
// lines, and on a mid-stream replica failure fail the *unserved* rest
// over to the least-loaded untried Healthy replica. Rows already
// answered stay answered, so every row the router acknowledged is
// classified exactly once regardless of how many replicas die on it.
func (rt *Router) proxySpan(ctx context.Context, b *batch, sp *span) {
	idx, off, lineno, rows := sp.rep, sp.lo, sp.line, sp.rows
	for attempt := 0; ; attempt++ {
		sp.tried[idx] = true
		rep := rt.reps[idx]
		served, reason := rt.sendRange(ctx, rep, b, sp, off, lineno, rows, attempt)
		if served == rows {
			rt.noteServed(rep, rows)
			return
		}
		if served > 0 {
			rep.rowsC.Add(uint64(served))
		}
		// The k answer lines pin the range's first k rows from off; the
		// rest is resent from just past the k-th.
		off, lineno = skipRows(b.body, off, lineno, served)
		rows -= served
		if ctx.Err() != nil {
			// The downstream client is gone (or the batch was aborted):
			// not a replica fault, so no failure accounting and no
			// failover — just answer the rest and stop.
			sp.rest, sp.restLine, sp.restMsg = off, lineno, "request canceled"
			return
		}
		rt.noteFailure(rep, reason)
		rt.obs.failovers.Inc()
		rt.logf("failover", "from", rep.url, "rows", rows, "reason", reason)
		next := rt.failoverTarget(rows, sp.tried)
		if next < 0 {
			sp.rest, sp.restLine, sp.restMsg = off, lineno, "no healthy replica available: "+reason
			rt.obs.shed.Add(uint64(rows))
			rep.shedC.Add(uint64(rows))
			return
		}
		idx = next
	}
}

// sendRange posts the range's bytes from off, where its rows unserved
// rows start at input line lineno, to a replica, and reads its
// answer into the attempt's own buffer. vqserve preserves input order,
// which is what makes the k-th answer line the k-th row's. It returns
// how many rows were answered and, when not all were, why.
func (rt *Router) sendRange(ctx context.Context, rep *replica, b *batch, sp *span, off, lineno, rows, attempt int) (int, string) {
	n := int64(rows)
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
	part := b.body[off:sp.hi]
	req.Body, req.ContentLength = b.send(part), int64(len(part))
	// The transport replays a request whose connection went stale
	// before anything was written only when it can get the body again.
	req.GetBody = func() (io.ReadCloser, error) { return b.send(part), nil }
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(reqscan.FirstLineHeader, strconv.Itoa(lineno))
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, fmt.Sprintf("replica HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	for len(sp.answers) <= attempt {
		sp.answers = append(sp.answers, nil)
	}
	ans, served, err := readAnswer(resp.Body, sp.answers[attempt][:0], rows)
	sp.answers[attempt] = ans
	if err != nil {
		return served, fmt.Sprintf("response stream broke after %d of %d rows: %v", served, rows, err)
	}
	if served < rows {
		return served, fmt.Sprintf("replica answered %d of %d rows", served, rows)
	}
	return served, ""
}

// readAnswer reads a replica's answer to rows rows into buf and
// returns buf cut to its first answer lines, each ending in one
// newline, and how many there are. Lines are read the way
// bufio.ScanLines does: blank lines and one trailing CR are dropped,
// compacting the buffer in place (a no-op on vqserve's own answers).
// A line answers its row only once its newline arrived, or when the
// stream ended cleanly after it: a line cut by a broken stream is part
// of the unserved rest. Lines past the last row are read, so the
// connection can be reused, and ignored. A line and its newline, with
// any blank or surplus lines before it, must fit in the maxLine bytes
// after the last answer line.
func readAnswer(r io.Reader, buf []byte, rows int) ([]byte, int, error) {
	served, kept := 0, 0 // answer lines, and the end of them in buf
	start, from := 0, 0  // the first incomplete line, and where its newline search resumes
	answered := 0        // where the last answer line ended as read, its newline included
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
			if served < rows && keepLine(buf, start, end, &kept) {
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
			if end := len(buf); served < rows && end-answered <= maxLine {
				if buf = append(buf, '\n'); keepLine(buf, start, end, &kept) {
					served++
				}
			}
			return buf[:kept], served, nil
		}
		if err != nil {
			if served == rows {
				return buf[:kept], served, nil
			}
			return buf[:kept], served, err
		}
	}
}

// keepLine moves buf[start:end], less one trailing CR, and a newline to
// buf[*kept:], and reports false for a blank line. buf[end] is the
// line's newline.
func keepLine(buf []byte, start, end int, kept *int) bool {
	if end > start && buf[end-1] == '\r' {
		end--
	}
	if end == start {
		return false
	}
	if *kept != start {
		copy(buf[*kept:], buf[start:end])
	}
	*kept += end - start
	buf[*kept] = '\n' // over a dropped CR, if there was one
	*kept++
	return true
}
