package chaos

// Fault scenarios for the online diagnosis engine (internal/serve and
// its HTTP surface). Each scenario builds its own engine, injects one
// fault class with seed-derived parameters, and asserts the engine's
// survival contract: every request answered, counters balanced, no
// crashed workers, and the process able to serve normally afterwards.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"vqprobe/internal/serve"
	"vqprobe/internal/trace"
)

// ServeMalformedIngest feeds /diagnose a seeded mix of valid records,
// blank lines, truncated JSON, binary junk, and oversized-but-legal
// lines. Contract: HTTP 200, exactly one result line per non-blank
// input line, parse errors carry true line numbers, and the engine
// still answers a clean request afterwards.
func (h *Harness) ServeMalformedIngest(m *serve.Model) {
	h.TB.Helper()
	e := serve.NewEngine(m, serve.Config{Shards: 2})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	var (
		body     strings.Builder
		nonBlank int
		badLines []int // 1-based input line numbers of malformed lines
		lineno   int
	)
	for i := 0; i < 200; i++ {
		lineno++
		switch h.Rand.Intn(5) {
		case 0: // blank (still advances the input line count)
			body.WriteString("\n")
		case 1: // truncated JSON
			body.WriteString(`{"id":"t","features":{"mobile.rtt":` + "\n")
			nonBlank++
			badLines = append(badLines, lineno)
		case 2: // binary junk
			junk := make([]byte, 1+h.Rand.Intn(24))
			for j := range junk {
				junk[j] = byte(1 + h.Rand.Intn(9)) // control bytes, no \n
			}
			body.Write(junk)
			body.WriteString("\n")
			nonBlank++
			badLines = append(badLines, lineno)
		default: // valid record
			fmt.Fprintf(&body, `{"id":"r%d","features":{"mobile.rtt":%d,"mobile.loss":%d}}`+"\n",
				i, 10+h.Rand.Intn(190), h.Rand.Intn(11))
			nonBlank++
		}
	}

	resp, err := srv.Client().Post(srv.URL+"/diagnose", "application/x-ndjson",
		strings.NewReader(body.String()))
	if err != nil {
		h.Fatalf("malformed ingest: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.Fatalf("malformed ingest: status %d, want 200", resp.StatusCode)
	}
	var results []serve.Result
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r serve.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			h.Fatalf("malformed ingest: unparseable result line %q: %v", sc.Text(), err)
		}
		results = append(results, r)
	}
	if len(results) != nonBlank {
		h.Failf("malformed ingest: %d result lines for %d non-blank input lines", len(results), nonBlank)
	}
	errLines := 0
	for _, r := range results {
		if strings.Contains(r.Err, "line ") {
			errLines++
		}
	}
	if errLines != len(badLines) {
		h.Failf("malformed ingest: %d per-line errors for %d malformed lines", errLines, len(badLines))
	}
	h.Logf("malformed-ingest: lines=%d bad=%d fp=%s", nonBlank, len(badLines), Fingerprint(results))

	// The engine survived: a clean follow-up classifies.
	after := e.DiagnoseBatch([]serve.Request{{ID: "after", Features: Vec(50, 0)}})
	if after[0].Err != "" {
		h.Failf("malformed ingest: engine broken afterwards: %q", after[0].Err)
	}
	h.CheckCounters(e)
}

// ServeNonFiniteFlood mixes NaN/Inf feature vectors into a batch.
// Contract: every poisoned record fails with a deterministic error
// naming a feature, every clean record classifies, and the invalid
// counter matches the poison count exactly.
func (h *Harness) ServeNonFiniteFlood(m *serve.Model) {
	h.TB.Helper()
	e := serve.NewEngine(m, serve.Config{Shards: 4})
	defer e.Close()

	var reqs []serve.Request
	poison := map[int]bool{}
	for i := 0; i < 300; i++ {
		fv := Vec(float64(10+h.Rand.Intn(190)), float64(h.Rand.Intn(11)))
		if h.Rand.Intn(3) == 0 {
			poison[i] = true
			key := "mobile.rtt"
			if h.Rand.Intn(2) == 0 {
				key = "mobile.loss"
			}
			switch h.Rand.Intn(3) {
			case 0:
				fv[key] = math.NaN()
			case 1:
				fv[key] = math.Inf(1)
			default:
				fv[key] = math.Inf(-1)
			}
		}
		reqs = append(reqs, serve.Request{ID: fmt.Sprintf("f%d", i), Features: fv})
	}
	results := e.DiagnoseBatch(reqs)
	for i, r := range results {
		if poison[i] {
			if !strings.Contains(r.Err, "non-finite") || r.Class != "" {
				h.Fatalf("non-finite flood: poisoned record %d not rejected: %+v", i, r)
			}
		} else if r.Err != "" || r.Class == "" {
			h.Fatalf("non-finite flood: clean record %d failed: %+v", i, r)
		}
	}
	h.Logf("non-finite-flood: n=%d poisoned=%d fp=%s", len(reqs), len(poison), Fingerprint(results))
	h.CheckCounters(e)
}

// ServeQueueSaturation hammers a deliberately tiny queue from many
// goroutines with the worker wedged on a slow fault, under the given
// policy. Contract: every submission returns (ok, or ErrOverloaded
// under Shed — never a hang), and accounting balances after the drain.
func (h *Harness) ServeQueueSaturation(m *serve.Model, policy serve.Policy) {
	h.TB.Helper()
	e := serve.NewEngine(m, serve.Config{
		Shards: 1, QueueDepth: 2, MaxBatch: 1, Policy: policy,
		InjectFault: func(r *serve.Request) error {
			time.Sleep(200 * time.Microsecond) // slow worker => standing queue
			return nil
		},
	})
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	var okN, shedN, otherN int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				res := e.DiagnoseBatch([]serve.Request{
					{ID: fmt.Sprintf("w%d-%d", w, i), Features: Vec(50, 0)},
				})
				mu.Lock()
				switch {
				case res[0].Err == "":
					okN++
				case strings.Contains(res[0].Err, serve.ErrOverloaded.Error()):
					shedN++
				default:
					otherN++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		h.Failf("queue saturation: close: %v", err)
	}
	if otherN != 0 {
		h.Failf("queue saturation: %d unexpected errors", otherN)
	}
	if okN+shedN != workers*perWorker {
		h.Failf("queue saturation: %d answers for %d submissions", okN+shedN, workers*perWorker)
	}
	if policy == serve.Block && shedN != 0 {
		h.Failf("queue saturation: Block policy shed %d requests", shedN)
	}
	h.CheckCounters(e)
}

// ServeReloadStorm hot-swaps the model while requests are in flight,
// interleaving failed reloads. Requests arrive both through
// DiagnoseBatch and as NDJSON bodies through Handler(), all carrying
// the full wide row (WideVec). Contract: every answer equals
// mA.Diagnose or mB.Diagnose of the full row, never a torn state (a
// body decoded for one snapshot's keys and classified by the other's),
// failed reloads leave the engine degraded-but-serving, and a final
// successful reload clears the degraded flag. mA and mB may read
// different keys.
func (h *Harness) ServeReloadStorm(mA, mB *serve.Model) {
	h.TB.Helper()
	e := serve.NewEngine(mA, serve.Config{Shards: 4})
	defer e.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The reload schedule's composition is fixed; it runs
		// concurrently with the request load until that is done, so its
		// interleaving with the requests is not deterministic.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				e.Reload(mB)
			case 1:
				e.NoteReloadError(fmt.Errorf("injected reload failure %d", i))
			case 2:
				e.Reload(mA)
			default:
				e.Reload(mB)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	full := WideVec(150, 8) // the severe region: differs per snapshot
	valid := map[string]bool{mA.Diagnose(full).Class: true, mB.Diagnose(full).Class: true}
	check := func(path string, res serve.Result) {
		if res.Err != "" || !valid[res.Class] {
			h.Failf("reload storm: torn or failed %s result mid-swap: %+v (want one of %v)", path, res, valid)
		}
	}

	// NDJSON bodies of four wide rows through the HTTP handler, while
	// DiagnoseBatch callers pass the same row as a map.
	line, err := json.Marshal(map[string]any{"features": full})
	if err != nil {
		h.Fatalf("reload storm: %v", err)
	}
	var body []byte
	for k := 0; k < 4; k++ {
		body = append(append(body, line...), '\n')
	}
	handler := e.Handler()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diagnose", bytes.NewReader(body)))
			n := 0
			sc := bufio.NewScanner(rec.Body)
			for sc.Scan() {
				var res serve.Result
				if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
					h.Failf("reload storm: bad result line %q: %v", sc.Text(), err)
				}
				check("/diagnose", res)
				n++
			}
			if n != 4 {
				h.Failf("reload storm: %d result lines for 4 rows (HTTP %d)", n, rec.Code)
			}
		}
	}()
	for i := 0; i < 400; i++ {
		res := e.DiagnoseBatch([]serve.Request{{ID: fmt.Sprintf("s%d", i), Features: full}})
		check("DiagnoseBatch", res[0])
	}
	close(stop)
	wg.Wait()

	// Degraded state is observable and recoverable.
	e.NoteReloadError(fmt.Errorf("final injected failure"))
	if e.LastReloadError() == "" {
		h.Failf("reload storm: degraded state not recorded")
	}
	if res := e.DiagnoseBatch([]serve.Request{{ID: "d", Features: Vec(50, 0)}}); res[0].Err != "" {
		h.Failf("reload storm: degraded engine stopped serving: %+v", res[0])
	}
	e.Reload(mA)
	if e.LastReloadError() != "" {
		h.Failf("reload storm: successful reload did not clear degraded state")
	}
	h.Logf("reload-storm: survived with consistent snapshots")
	h.CheckCounters(e)
}

// ServeSlowClients throws badly behaved HTTP clients at the server: one
// that dribbles half a request then hangs until cut off, one that
// disconnects mid-request, and one that walks away while the response
// is streaming. Contract: none of them wedge the server — a clean
// request afterwards gets a normal answer.
func (h *Harness) ServeSlowClients(m *serve.Model) {
	h.TB.Helper()
	e := serve.NewEngine(m, serve.Config{Shards: 2})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	dial := func() net.Conn {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			h.Fatalf("slow client: dial: %v", err)
		}
		return c
	}

	// Client 1: dribbles headers + half a body line, then stalls; the
	// harness cuts it off as a client-side timeout would.
	c1 := dial()
	fmt.Fprintf(c1, "POST /diagnose HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n")
	fmt.Fprintf(c1, `{"id":"half","features":{"mobile.`)
	time.Sleep(50 * time.Millisecond)
	//lint:ignore closecheck the scenario IS the abrupt disconnect; the close error is the point
	c1.Close()

	// Client 2: promises a body and disconnects immediately.
	c2 := dial()
	fmt.Fprintf(c2, "POST /diagnose HTTP/1.1\r\nHost: x\r\nContent-Length: 500\r\n\r\n")
	//lint:ignore closecheck the scenario IS the abrupt disconnect; the close error is the point
	c2.Close()

	// Client 3: sends a large valid batch and walks away mid-response;
	// the handler must abort its write loop, not spin on a dead socket.
	var big strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&big, `{"id":"g%d","features":{"mobile.rtt":50,"mobile.loss":0}}`+"\n", i)
	}
	c3 := dial()
	fmt.Fprintf(c3, "POST /diagnose HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s",
		big.Len(), big.String())
	buf := make([]byte, 256)
	c3.Read(buf) // first bytes of the response
	//lint:ignore closecheck the scenario IS the abrupt disconnect; the close error is the point
	c3.Close()

	// The server is still healthy.
	resp, err := srv.Client().Post(srv.URL+"/diagnose", "application/x-ndjson",
		strings.NewReader(`{"id":"after","features":{"mobile.rtt":50,"mobile.loss":0}}`+"\n"))
	if err != nil {
		h.Fatalf("slow client: server dead after abusive clients: %v", err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(out), `"good"`) {
		h.Fatalf("slow client: bad answer after abusive clients: %d %s", resp.StatusCode, out)
	}
	h.Logf("slow-clients: server survived 3 abusive clients")
	h.CheckCounters(e)
}

// ServeWorkerPanics poisons a seed-derived subset of requests so the
// classification path panics. Contract: each poisoned request fails
// with a recovered-panic error, every other request classifies, and
// the workers (and Close) survive.
func (h *Harness) ServeWorkerPanics(m *serve.Model) {
	h.TB.Helper()
	e := serve.NewEngine(m, serve.Config{
		Shards: 3,
		InjectFault: func(r *serve.Request) error {
			if strings.HasSuffix(r.ID, "!") {
				panic("chaos: poisoned " + r.ID)
			}
			return nil
		},
	})
	var reqs []serve.Request
	poisoned := 0
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("p%d", i)
		if h.Rand.Intn(4) == 0 {
			id += "!"
			poisoned++
		}
		reqs = append(reqs, serve.Request{ID: id, Features: Vec(50, 0)})
	}
	results := e.DiagnoseBatch(reqs)
	for i, r := range results {
		if strings.HasSuffix(reqs[i].ID, "!") {
			if !strings.Contains(r.Err, "recovered panic") {
				h.Fatalf("worker panics: poisoned %s answered %+v", reqs[i].ID, r)
			}
		} else if r.Err != "" {
			h.Fatalf("worker panics: clean %s failed: %q", reqs[i].ID, r.Err)
		}
	}
	if err := e.Close(); err != nil {
		h.Failf("worker panics: close hung or failed: %v", err)
	}
	h.Logf("worker-panics: n=%d poisoned=%d fp=%s", len(reqs), poisoned, Fingerprint(results))
	h.CheckCounters(e)
}

// ServeClockSkew drives the engine with a tracer whose clock performs a
// seeded random walk that repeatedly steps backwards (NTP corrections,
// broken virtual clocks). Contract: no span is emitted with a negative
// start or duration.
func (h *Harness) ServeClockSkew(m *serve.Model) {
	h.TB.Helper()
	var mu sync.Mutex
	now := 10 * time.Second
	rng := h.Rand
	tr := trace.New(trace.Config{Capacity: 4096, Clock: func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		// Mostly forward, sometimes a hard backwards step.
		if rng.Intn(4) == 0 {
			now -= time.Duration(rng.Intn(2000)) * time.Millisecond
		} else {
			now += time.Duration(rng.Intn(50)) * time.Millisecond
		}
		return now
	}})
	e := serve.NewEngine(m, serve.Config{Shards: 2, Tracer: tr})
	for i := 0; i < 100; i++ {
		e.DiagnoseBatch([]serve.Request{{ID: fmt.Sprintf("c%d", i), Features: Vec(50, 0)}})
	}
	if err := e.Close(); err != nil {
		h.Fatalf("engine close under clock skew: %v", err)
	}
	n := 0
	for _, ev := range tr.Events() {
		n++
		if ev.Start < 0 || ev.Dur < 0 {
			h.Fatalf("clock skew: span %s/%s emitted Start=%v Dur=%v", ev.Track, ev.Name, ev.Start, ev.Dur)
		}
	}
	if n == 0 {
		h.Failf("clock skew: tracer recorded no spans")
	}
	h.Logf("clock-skew: spans non-negative")
}

// ServePredictionsStable runs a fixed workload, subjects the engine to
// a chaos sweep (panics, reload churn back to an equivalent snapshot,
// a non-finite flood), then replays the workload. Contract: the two
// prediction fingerprints are byte-identical — chaos must not perturb
// the model's answers.
func (h *Harness) ServePredictionsStable(mk func() *serve.Model) {
	h.TB.Helper()
	faults := false
	e := serve.NewEngine(mk(), serve.Config{
		Shards: 2,
		InjectFault: func(r *serve.Request) error {
			if faults && strings.HasSuffix(r.ID, "!") {
				panic("chaos sweep")
			}
			return nil
		},
	})
	defer e.Close()

	var workload []serve.Request
	for i := 0; i < 150; i++ {
		workload = append(workload, serve.Request{
			ID:       fmt.Sprintf("w%d", i),
			Features: Vec(float64(10+h.Rand.Intn(190)), float64(h.Rand.Intn(11))),
		})
	}
	before := Fingerprint(e.DiagnoseBatch(workload))

	faults = true
	var sweep []serve.Request
	for i := 0; i < 60; i++ {
		fv := Vec(float64(10+h.Rand.Intn(190)), float64(h.Rand.Intn(11)))
		id := fmt.Sprintf("x%d", i)
		switch h.Rand.Intn(3) {
		case 0:
			id += "!"
		case 1:
			fv["mobile.rtt"] = math.NaN()
		}
		sweep = append(sweep, serve.Request{ID: id, Features: fv})
	}
	e.DiagnoseBatch(sweep)
	e.Reload(mk()) // retrained-to-equivalent snapshot
	faults = false

	after := Fingerprint(e.DiagnoseBatch(workload))
	if before != after {
		h.Fatalf("predictions drifted across chaos: %s -> %s", before, after)
	}
	h.Logf("predictions-stable: fp=%s", before)
	h.CheckCounters(e)
}
