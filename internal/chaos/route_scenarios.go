package chaos

// Fault scenarios for the fleet-mode router (internal/route +
// cmd/vqroute). These extend the harness to the multi-replica
// topology: each scenario boots real serve engines behind per-replica
// HTTP servers, fronts them with a router, and injects topology-level
// faults — a replica killed mid-batch, a split-brain model reload, a
// flapping replica under a retry storm, a client vanishing mid-stream
// through the proxy. Fault parameters derive from the harness seed;
// wall-clock behavior (real HTTP, real goroutines) stays behind the
// same survival contracts the single-engine scenarios use: every
// acknowledged row answered exactly once, counters balanced, nothing
// leaked, and the fleet serving normally afterwards.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"vqprobe/internal/route"
	"vqprobe/internal/serve"
)

// routeRows renders n seeded NDJSON rows with IDs prefixed pfx and
// returns the body plus the IDs in order.
func (h *Harness) routeRows(pfx string, n int) (string, []string) {
	var b strings.Builder
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("%s-%d", pfx, i)
		fmt.Fprintf(&b, `{"id":%q,"features":{"mobile.rtt":%d,"mobile.loss":%d}}`+"\n",
			ids[i], 10+h.Rand.Intn(190), h.Rand.Intn(11))
	}
	return b.String(), ids
}

// postRows sends one NDJSON batch to the router and decodes the
// answer rows.
func (h *Harness) postRows(client *http.Client, url, body string) []serve.Result {
	h.TB.Helper()
	resp, err := client.Post(url+"/diagnose", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		h.Fatalf("router POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
		h.Fatalf("router answered HTTP %d: %s", resp.StatusCode, msg)
	}
	var out []serve.Result
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r serve.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			h.Fatalf("unparseable router result %q: %v", sc.Text(), err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		h.Fatalf("router result stream: %v", err)
	}
	return out
}

// checkExactlyOnce asserts one clean answer per input row, in input
// order — the zero-lost-acknowledged-requests contract.
func (h *Harness) checkExactlyOnce(what string, ids []string, results []serve.Result) {
	h.TB.Helper()
	if len(results) != len(ids) {
		h.Fatalf("%s: %d result rows for %d inputs", what, len(results), len(ids))
	}
	seen := map[string]int{}
	for i, r := range results {
		if r.ID != ids[i] {
			h.Failf("%s: slot %d holds %q, want %q", what, i, r.ID, ids[i])
		}
		if r.Err != "" {
			h.Failf("%s: acknowledged row %s lost: %q", what, r.ID, r.Err)
		}
		seen[r.ID]++
	}
	for id, n := range seen {
		if n != 1 {
			h.Failf("%s: row %s answered %d times", what, id, n)
		}
	}
}

// RouteReplicaKill kills one replica mid-batch: the replica streams a
// seeded number of answer rows, then its connection dies and every
// subsequent request to it fails. Contract: the router fails the
// unserved tail over to the surviving replica and the client receives
// exactly one clean answer per row — zero lost acknowledged requests —
// on the kill batch and on every batch after it; health polls then
// eject the corpse and traffic stops reaching it entirely.
func (h *Harness) RouteReplicaKill(mk func() *serve.Model) {
	h.TB.Helper()
	eA := serve.NewEngine(mk(), serve.Config{Shards: 2})
	defer eA.Close()
	eB := serve.NewEngine(mk(), serve.Config{Shards: 2})
	defer eB.Close()

	killAfter := 1 + h.Rand.Intn(4) // rows the dying replica answers first
	var (
		dead     atomic.Bool
		aBatches atomic.Int64
		realA    = eA.Handler()
	)
	srvA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			http.Error(w, "replica killed", http.StatusServiceUnavailable)
			return
		}
		if r.URL.Path != "/diagnose" {
			realA.ServeHTTP(w, r)
			return
		}
		aBatches.Add(1)
		// Serve the batch through the real engine, then cut the stream
		// after killAfter lines — the kill lands mid-response.
		dead.Store(true)
		rec := httptest.NewRecorder()
		realA.ServeHTTP(rec, r)
		w.Header().Set("Content-Type", "application/x-ndjson")
		sc := bufio.NewScanner(rec.Body)
		for i := 0; i < killAfter && sc.Scan(); i++ {
			w.Write(append(sc.Bytes(), '\n'))
		}
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	defer srvA.Close()
	srvB := httptest.NewServer(eB.Handler())
	defer srvB.Close()

	rt, err := route.New(route.Config{Replicas: []string{srvA.URL, srvB.URL}, EjectAfter: 2})
	if err != nil {
		h.Fatalf("router: %v", err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	rows := 80 + h.Rand.Intn(80)
	body, ids := h.routeRows("kill", rows)
	results := h.postRows(router.Client(), router.URL, body)
	h.checkExactlyOnce("replica-kill batch", ids, results)
	if aBatches.Load() != 1 {
		h.Failf("replica-kill: dying replica served %d batches, want exactly 1", aBatches.Load())
	}
	h.Logf("replica-kill: rows=%d killAfter=%d fp=%s", rows, killAfter, Fingerprint(results))

	// The fleet keeps answering while the corpse is still nominally in
	// rotation (failover absorbs its range request by request).
	body2, ids2 := h.routeRows("after", 40)
	h.checkExactlyOnce("post-kill batch", ids2, h.postRows(router.Client(), router.URL, body2))

	// Health polls eject it; traffic then routes around it entirely.
	ctx := context.Background()
	rt.PollHealth(ctx)
	rt.PollHealth(ctx)
	if st := rt.Statuses(); st[0].State != "down" {
		h.Failf("replica-kill: killed replica state %q after polls, want down", st[0].State)
	}
	body3, ids3 := h.routeRows("routed", 40)
	h.checkExactlyOnce("post-eject batch", ids3, h.postRows(router.Client(), router.URL, body3))

	h.CheckCounters(eA)
	h.CheckCounters(eB)
}

// RouteSplitBrainReload drives a staged rollout into a fleet whose
// replicas load different artifacts. Contract: the canary verifies,
// the fan-out detects the hash mismatch and holds; a fleet with a
// degraded replica holds before touching the canary at all; and both
// holds leave the fleet serving traffic from its last-good models.
func (h *Harness) RouteSplitBrainReload(mk func() *serve.Model) {
	h.TB.Helper()
	var canaryReloads atomic.Int64
	mkHashed := func(hash string) *serve.Model {
		m := mk()
		m.SetProvenance(hash, 0)
		return m
	}
	eA := serve.NewEngine(mkHashed("v1"), serve.Config{Shards: 2, ReloadFunc: func() (*serve.Model, error) {
		canaryReloads.Add(1)
		return mkHashed("v2"), nil
	}})
	defer eA.Close()
	// Replica B misbehaves on demand: "split" loads a different
	// artifact, "fail" refuses to load at all.
	var bMode atomic.Value
	bMode.Store("split")
	eB := serve.NewEngine(mkHashed("v1"), serve.Config{Shards: 2, ReloadFunc: func() (*serve.Model, error) {
		if bMode.Load() == "fail" {
			return nil, fmt.Errorf("artifact store returned a torn file")
		}
		return mkHashed("v2-other"), nil
	}})
	defer eB.Close()
	srvA := httptest.NewServer(eA.Handler())
	defer srvA.Close()
	srvB := httptest.NewServer(eB.Handler())
	defer srvB.Close()

	rt, err := route.New(route.Config{Replicas: []string{srvA.URL, srvB.URL}})
	if err != nil {
		h.Fatalf("router: %v", err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()
	ctx := context.Background()

	// Split brain: canary loads v2, the fan-out replica loads v2-other.
	rep, err := rt.Rollout(ctx, "v2")
	if err != nil {
		h.Fatalf("split-brain rollout: %v", err)
	}
	if rep.Status != "held" || !strings.Contains(rep.Reason, "split brain") {
		h.Failf("split-brain rollout not held: status=%q reason=%q", rep.Status, rep.Reason)
	}
	h.Logf("split-brain: held reason has split brain=%v stages=%d", strings.Contains(rep.Reason, "split brain"), len(rep.Stages))

	// Degraded hold: break B's reload for real (its own /-/reload fails,
	// it keeps serving last-good and self-reports degraded), then a new
	// rollout must hold before reloading the canary.
	bMode.Store("fail")
	resp, err := http.Post(srvB.URL+"/-/reload", "", nil)
	if err != nil {
		h.Fatalf("degrading reload: %v", err)
	}
	resp.Body.Close()
	before := canaryReloads.Load()
	rt.PollHealth(ctx)
	if st := rt.Statuses(); st[1].State != "degraded" {
		h.Failf("split-brain: replica B state %q after failed reload, want degraded", st[1].State)
	}
	rep, err = rt.Rollout(ctx, "v2")
	if err != nil {
		h.Fatalf("degraded rollout: %v", err)
	}
	if rep.Status != "held" || !strings.Contains(rep.Reason, "degraded") {
		h.Failf("rollout into degraded fleet not held: status=%q reason=%q", rep.Status, rep.Reason)
	}
	if canaryReloads.Load() != before {
		h.Failf("degraded hold still reloaded the canary (%d -> %d)", before, canaryReloads.Load())
	}

	// Both holds left the fleet serving: the degraded replica answers
	// traffic when no Healthy replica has room, from the last-good
	// snapshot; here the Healthy replica takes the batch.
	body, ids := h.routeRows("held", 60)
	h.checkExactlyOnce("post-hold batch", ids, h.postRows(router.Client(), router.URL, body))
	h.Logf("split-brain: post-hold traffic served rows=%d", len(ids))

	h.CheckCounters(eA)
	h.CheckCounters(eB)
}

// RouteRetryStorm batters the router while one replica flaps. The
// contract is damping, not heroics: a replica that answers 500 to
// every batch absorbs at most EjectAfter upstream requests before it
// is ejected — no matter how many client batches arrive — and every
// client batch still gets exactly one clean answer per row through
// the failover path. When the replica recovers, a health poll
// re-admits it and it takes ranges again.
func (h *Harness) RouteRetryStorm(mk func() *serve.Model) {
	h.TB.Helper()
	eA := serve.NewEngine(mk(), serve.Config{Shards: 2})
	defer eA.Close()
	eB := serve.NewEngine(mk(), serve.Config{Shards: 2})
	defer eB.Close()

	var (
		aFlaky atomic.Bool
		aReqs  atomic.Int64
		bReqs  atomic.Int64
		realA  = eA.Handler()
		realB  = eB.Handler()
	)
	aFlaky.Store(true)
	srvA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/diagnose" {
			aReqs.Add(1)
			if aFlaky.Load() {
				http.Error(w, "replica flapping", http.StatusInternalServerError)
				return
			}
		}
		if r.URL.Path == "/healthz" && aFlaky.Load() {
			http.Error(w, "replica flapping", http.StatusInternalServerError)
			return
		}
		realA.ServeHTTP(w, r)
	}))
	defer srvA.Close()
	srvB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/diagnose" {
			bReqs.Add(1)
		}
		realB.ServeHTTP(w, r)
	}))
	defer srvB.Close()

	const ejectAfter = 3
	rt, err := route.New(route.Config{Replicas: []string{srvA.URL, srvB.URL}, EjectAfter: ejectAfter})
	if err != nil {
		h.Fatalf("router: %v", err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	batches := 8 + h.Rand.Intn(5)
	for i := 0; i < batches; i++ {
		body, ids := h.routeRows(fmt.Sprintf("storm%d", i), 16)
		h.checkExactlyOnce(fmt.Sprintf("storm batch %d", i), ids, h.postRows(router.Client(), router.URL, body))
	}
	stormA := aReqs.Load()
	if stormA > ejectAfter {
		h.Failf("retry storm not damped: flapping replica absorbed %d requests, eject threshold is %d", stormA, ejectAfter)
	}
	if stormA == 0 {
		h.Failf("retry storm never touched the flapping replica — scenario is vacuous")
	}
	if upper := int64(2*batches + 1); bReqs.Load() > upper {
		h.Failf("healthy replica absorbed %d requests for %d batches (cap %d) — failover is retrying in a loop",
			bReqs.Load(), batches, upper)
	}
	if st := rt.Statuses(); st[0].State != "down" {
		h.Failf("flapping replica state %q after the storm, want down", st[0].State)
	}
	h.Logf("retry-storm: batches=%d flaky_reqs<=%d damped=true", batches, ejectAfter)

	// Recovery: the replica stops flapping, a poll re-admits it, and
	// it takes ranges again.
	aFlaky.Store(false)
	rt.PollHealth(context.Background())
	if st := rt.Statuses(); st[0].State != "healthy" {
		h.Failf("recovered replica state %q after poll, want healthy", st[0].State)
	}
	before := aReqs.Load()
	body, ids := h.routeRows("recovered", 32)
	h.checkExactlyOnce("recovery batch", ids, h.postRows(router.Client(), router.URL, body))
	if aReqs.Load() == before {
		h.Failf("recovered replica received no traffic after re-admission")
	}

	h.CheckCounters(eA)
	h.CheckCounters(eB)
}

// RouteClientDisconnect vanishes the downstream client mid-request and
// requires the router to cancel its upstream replica request — the
// audit contract for aborted writes: no replica keeps grinding for a
// socket nobody reads, and the router serves normally afterwards.
func (h *Harness) RouteClientDisconnect(mk *serve.Model) {
	h.TB.Helper()
	e := serve.NewEngine(mk, serve.Config{Shards: 2})
	defer e.Close()
	real := e.Handler()

	var hang atomic.Bool
	hang.Store(true)
	gotUpstream := make(chan struct{})
	canceled := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/diagnose" && hang.CompareAndSwap(true, false) {
			// Drain the body first: the server only notices a vanished
			// client once no unread request data is pending.
			io.Copy(io.Discard, r.Body)
			close(gotUpstream)
			select {
			case <-r.Context().Done():
				close(canceled)
			case <-time.After(10 * time.Second):
			}
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer srv.Close()

	rt, err := route.New(route.Config{Replicas: []string{srv.URL}})
	if err != nil {
		h.Fatalf("router: %v", err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	body, _ := h.routeRows("gone", 8)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, router.URL+"/diagnose", strings.NewReader(body))
	if err != nil {
		h.Fatalf("building request: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := router.Client().Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-gotUpstream
	cancel() // the client vanishes mid-stream

	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		h.Fatalf("client disconnect did not cancel the upstream replica request")
	}
	if err := <-done; err == nil {
		h.Failf("canceled client request reported success")
	}
	h.Logf("client-disconnect: upstream canceled=true")

	// The router shrugs it off: the next batch round-trips cleanly.
	body2, ids2 := h.routeRows("alive", 20)
	h.checkExactlyOnce("post-disconnect batch", ids2, h.postRows(router.Client(), router.URL, body2))
	h.CheckCounters(e)
}
