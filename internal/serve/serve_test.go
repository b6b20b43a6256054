package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vqprobe/internal/features"
	"vqprobe/internal/metrics"
	"vqprobe/internal/ml"
	"vqprobe/internal/ml/c45"
)

// testModel trains a small, fully separable model: good (rtt <= 100),
// lan_cong_mild (rtt > 100, loss <= 5), severeClass (rtt > 100,
// loss > 5). severeClass parameterizes the label so reload tests can
// tell two snapshots apart.
func testModel(t testing.TB, severeClass string) *Model {
	t.Helper()
	return testModelOn(t, "mobile", severeClass)
}

// testModelOn is testModel over the features <vp>.rtt and <vp>.loss.
func testModelOn(t testing.TB, vp, severeClass string) *Model {
	t.Helper()
	var insts []ml.Instance
	for rtt := 10.0; rtt <= 200; rtt += 10 {
		for loss := 0.0; loss <= 10; loss++ {
			cls := "good"
			if rtt > 100 {
				if loss > 5 {
					cls = severeClass
				} else {
					cls = "lan_cong_mild"
				}
			}
			insts = append(insts, ml.Instance{
				Features: metrics.Vector{vp + ".rtt": rtt, vp + ".loss": loss},
				Class:    cls,
			})
		}
	}
	d := ml.NewDataset(insts)
	constructed, norm := features.Construct(d)
	tree := c45.Default().TrainTree(constructed)
	ct, err := c45.Compile(tree)
	if err != nil {
		t.Fatal(err)
	}
	return NewModel("exact", norm, ct)
}

func fv(rtt, loss float64) map[string]float64 {
	return map[string]float64{"mobile.rtt": rtt, "mobile.loss": loss}
}

// TestFillRowMatchesApplyVector pins the serving fast path: the sparse
// per-plan normalization must be bit-identical to running the full
// Normalizer.ApplyVector and then predicting, across max-scaled
// features, ratio-normalized tcp counters, and missing values, both
// for feature maps and for rows /diagnose decodes into slots.
func TestFillRowMatchesApplyVector(t *testing.T) {
	var insts []ml.Instance
	rng := rand.New(rand.NewSource(5))
	mk := func() metrics.Vector {
		return metrics.Vector{
			"mobile.throughput_bps_avg":   rng.Float64() * 5e6,
			"mobile.tcp_c2s_retrans_pkts": float64(rng.Intn(50)),
			"mobile.tcp_total_pkts":       float64(100 + rng.Intn(900)),
			"mobile.rtt":                  rng.Float64() * 300,
		}
	}
	for i := 0; i < 300; i++ {
		fv := mk()
		cls := "good"
		if fv["mobile.tcp_c2s_retrans_pkts"]/fv["mobile.tcp_total_pkts"] > 0.03 {
			cls = "lan_cong_severe"
		} else if fv["mobile.rtt"] > 150 {
			cls = "wan_mild"
		}
		insts = append(insts, ml.Instance{Features: fv, Class: cls})
	}
	d := ml.NewDataset(insts)
	constructed, norm := features.Construct(d)
	tree := c45.Default().TrainTree(constructed)
	ct, err := c45.Compile(tree)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel("exact", norm, ct)
	var body bytes.Buffer
	var wants []string
	for i := 0; i < 500; i++ {
		fv := mk()
		// Randomly drop keys to exercise missing values (including the
		// ratio divisor).
		for _, k := range fv.Names() {
			if rng.Intn(5) == 0 {
				delete(fv, k)
			}
		}
		want := ct.PredictRow(ct.RowFromVector(norm.ApplyVector(fv)))
		if got := m.Diagnose(fv).Class; got != want {
			t.Fatalf("vector %d: fast path %q, full path %q (fv=%v)", i, got, want, fv)
		}
		line, err := json.Marshal(Request{ID: fmt.Sprint(i), Features: fv})
		if err != nil {
			t.Fatal(err)
		}
		body.Write(append(line, '\n'))
		wants = append(wants, want)
	}
	e := NewEngine(m, Config{Shards: 2})
	defer e.Close()
	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diagnose", &body))
	dec := json.NewDecoder(rec.Body)
	for i, want := range wants {
		var got Result
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		if got.Class != want {
			t.Fatalf("decoded row %d: %+v, full path %q", i, got, want)
		}
	}
}

func TestParseClass(t *testing.T) {
	cases := []struct{ cls, sev, cause string }{
		{"good", "good", "good"},
		{"problematic", "problematic", "unknown"},
		{"lan_cong_severe", "severe", "lan_cong"},
		{"wan_mild", "mild", "wan"},
		{"odd", "", "odd"},
	}
	for _, c := range cases {
		sev, cause := ParseClass(c.cls)
		if sev != c.sev || cause != c.cause {
			t.Errorf("ParseClass(%q) = (%q, %q), want (%q, %q)", c.cls, sev, cause, c.sev, c.cause)
		}
	}
}

func TestModelDiagnose(t *testing.T) {
	m := testModel(t, "lan_cong_severe")
	cases := []struct {
		rtt, loss float64
		class     string
	}{
		{20, 0, "good"},
		{180, 2, "lan_cong_mild"},
		{180, 9, "lan_cong_severe"},
	}
	for _, c := range cases {
		res := m.Diagnose(metrics.Vector(fv(c.rtt, c.loss)))
		if res.Class != c.class {
			t.Errorf("Diagnose(rtt=%g, loss=%g) = %q, want %q", c.rtt, c.loss, res.Class, c.class)
		}
	}
	if res := m.Diagnose(metrics.Vector(fv(180, 9))); res.Severity != "severe" || res.Cause != "lan_cong" {
		t.Errorf("severity/cause = %q/%q, want severe/lan_cong", res.Severity, res.Cause)
	}
}

func TestEngineDiagnoseBatch(t *testing.T) {
	e := NewEngine(testModel(t, "lan_cong_severe"), Config{Shards: 4, QueueDepth: 8})
	defer e.Close()
	var reqs []Request
	for i := 0; i < 100; i++ {
		rtt := float64(10 + (i%20)*10)
		reqs = append(reqs, Request{ID: fmt.Sprintf("s-%d", i), Features: fv(rtt, 0)})
	}
	res := e.DiagnoseBatch(reqs)
	if len(res) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(res), len(reqs))
	}
	for i, r := range res {
		if r.ID != reqs[i].ID {
			t.Fatalf("result %d has ID %q, want %q (order not preserved)", i, r.ID, reqs[i].ID)
		}
		want := "good"
		if reqs[i].Features["mobile.rtt"] > 100 {
			want = "lan_cong_mild"
		}
		if r.Class != want {
			t.Fatalf("result %d class %q, want %q", i, r.Class, want)
		}
	}
}

// TestEngineDrainOnClose: Close answers a Block waiter with ErrClosed
// at once, returns only after the rows already admitted are answered,
// and drops none of them; a body sent after Close is refused whole.
func TestEngineDrainOnClose(t *testing.T) {
	w := newWedge()
	e := NewEngine(testModel(t, "lan_cong_severe"), Config{Shards: 1, QueueDepth: 2, InjectFault: w.fault})
	held := w.hold(e, 2) // all of the admission limit
	waiter := make(chan []Result, 1)
	go func() { waiter <- e.DiagnoseBatch([]Request{{ID: "late", Features: fv(180, 9)}}) }()
	awaitWaiters(e, 1)

	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	if r := <-waiter; r[0].ID != "late" || r[0].Err != ErrClosed.Error() {
		t.Fatalf("Block waiter at Close answered %+v, want ErrClosed", r[0])
	}
	select {
	case <-closed:
		t.Fatal("Close returned while admitted rows were unanswered")
	default:
	}
	w.release()
	<-closed
	for i, r := range <-held {
		if r.Class != "good" {
			t.Fatalf("admitted row %d dropped on close: %+v", i, r)
		}
	}
	for i, r := range e.DiagnoseBatch([]Request{{ID: "a", Features: fv(20, 0)}, {ID: "b", Features: fv(20, 0)}}) {
		if r.Err != ErrClosed.Error() {
			t.Fatalf("row %d after Close = %+v, want ErrClosed", i, r)
		}
	}
	if sub, reqd, errs, shed := e.Counters(); sub != 2 || reqd != 2 || errs != 0 || shed != 0 {
		t.Errorf("submitted=%d classified=%d errors=%d shed=%d, want 2, 2, 0 and 0", sub, reqd, errs, shed)
	}
}

// TestEngineShedPolicy: under Shed, with admission partly held by
// wedged rows, a body's rows past the room come back ErrOverloaded and
// the rest are classified, without waiting for the wedge.
func TestEngineShedPolicy(t *testing.T) {
	w := newWedge()
	e := NewEngine(testModel(t, "lan_cong_severe"), Config{
		Shards: 1, QueueDepth: 8, Policy: Shed, InjectFault: w.fault,
	})
	held := w.hold(e, 3) // room for 5 more
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{ID: fmt.Sprint(i), Features: fv(20, 0)}
	}
	for i, r := range e.DiagnoseBatch(reqs) { // returns while the wedge holds
		if (i < 5 && r.Class != "good") || (i >= 5 && r.Err != ErrOverloaded.Error()) {
			t.Fatalf("row %d of a body with room for 5: %+v", i, r)
		}
	}
	if got := e.Registry().Counter("vqserve_shed_total", "").Value(); got != 3 {
		t.Fatalf("vqserve_shed_total = %d, want 3", got)
	}
	w.release()
	<-held
	e.Close()
	if sub, reqd, errs, _ := e.Counters(); sub != 8 || reqd != 8 || errs != 0 {
		t.Errorf("submitted=%d classified=%d errors=%d, want 8, 8 and 0", sub, reqd, errs)
	}
}

func ndjson(reqs []Request) string {
	var b strings.Builder
	for _, r := range reqs {
		b.WriteString(fmt.Sprintf(`{"id":%q,"features":{"mobile.rtt":%g,"mobile.loss":%g}}`,
			r.ID, r.Features["mobile.rtt"], r.Features["mobile.loss"]))
		b.WriteByte('\n')
	}
	return b.String()
}

func TestHTTPDiagnose(t *testing.T) {
	e := NewEngine(testModel(t, "lan_cong_severe"), Config{Shards: 2})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	body := ndjson([]Request{
		{ID: "s1", Features: fv(20, 0)},
		{ID: "s2", Features: fv(180, 9)},
	}) + "not json\n"
	resp, err := http.Post(srv.URL+"/diagnose", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d response lines, want 3:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], `"class":"good"`) {
		t.Errorf("line 1 = %s, want class good", lines[0])
	}
	if !strings.Contains(lines[1], `"class":"lan_cong_severe"`) {
		t.Errorf("line 2 = %s, want class lan_cong_severe", lines[1])
	}
	if !strings.Contains(lines[2], `"error"`) {
		t.Errorf("line 3 = %s, want a per-line error", lines[2])
	}

	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", hz.StatusCode)
	}
}

// metricValue extracts the first sample value of a metric line matching
// the given prefix from a Prometheus exposition body.
func metricValue(t *testing.T, body, prefix string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(prefix) + `\S*\s+(\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %q not found in:\n%s", prefix, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestHotReloadRace is the acceptance stress test: concurrent /diagnose
// traffic while the model is hot-swapped must drop zero in-flight
// requests, and the per-stage histograms must be non-zero afterwards.
// Run with -race.
func TestHotReloadRace(t *testing.T) {
	modelA := testModel(t, "lan_cong_severe")
	modelB := testModel(t, "wan_severe")
	e := NewEngine(modelA, Config{Shards: 4, QueueDepth: 64})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	const (
		clients  = 6
		rounds   = 25
		perBatch = 20
	)
	stop := make(chan struct{})
	var reloader sync.WaitGroup
	reloader.Add(1)
	go func() {
		defer reloader.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				e.Reload(modelB)
			} else {
				e.Reload(modelA)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var clientsWG sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		clientsWG.Add(1)
		go func(c int) {
			defer clientsWG.Done()
			var reqs []Request
			for i := 0; i < perBatch; i++ {
				reqs = append(reqs, Request{ID: fmt.Sprintf("c%d-%d", c, i), Features: fv(180, 9)})
			}
			body := ndjson(reqs)
			for r := 0; r < rounds; r++ {
				resp, err := http.Post(srv.URL+"/diagnose", "application/x-ndjson", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				out, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				if len(lines) != perBatch {
					errs <- fmt.Errorf("client %d round %d: %d lines, want %d", c, r, len(lines), perBatch)
					return
				}
				for _, l := range lines {
					// Either snapshot's answer is acceptable; a drop or error is not.
					if !strings.Contains(l, `"class":"lan_cong_severe"`) && !strings.Contains(l, `"class":"wan_severe"`) {
						errs <- fmt.Errorf("client %d round %d: unexpected line %s", c, r, l)
						return
					}
				}
			}
		}(c)
	}
	clientsWG.Wait()
	close(stop)
	reloader.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if got, want := metricValue(t, body, "vqserve_requests_total"), float64(clients*rounds*perBatch); got != want {
		t.Fatalf("vqserve_requests_total = %g, want %g (dropped requests)", got, want)
	}
	for _, stage := range []string{"queue", "normalize", "predict", "total"} {
		if v := metricValue(t, body, fmt.Sprintf(`vqserve_stage_latency_seconds_count{stage="%s"}`, stage)); v <= 0 {
			t.Errorf("stage %s histogram is empty", stage)
		}
	}
	if v := metricValue(t, body, "vqserve_model_reloads_total"); v <= 0 {
		t.Error("no reloads recorded")
	}
}

// wideRow is a full row for models over the mobile and server vantage
// points, plus filler keys that neither reads: in the severe region of
// both, so modelA answers its severe class and modelB its own.
func wideRow() map[string]float64 {
	row := map[string]float64{"mobile.rtt": 150, "mobile.loss": 8, "server.rtt": 150, "server.loss": 8}
	for i := 0; i < 350; i++ {
		row[fmt.Sprintf("router.f%03d", i)] = float64(i) * 1.37
	}
	return row
}

// TestReloadKeepsDecodeSnapshot pins the hot-reload contract of the
// /diagnose decode: a body is decoded for the keys of the snapshot
// current at decode time, so it must be classified by that snapshot
// even when a reload lands while it waits for admission. Classified by
// the new snapshot, the row would miss every key the new model reads
// and get an answer that neither model gives on the full row.
func TestReloadKeepsDecodeSnapshot(t *testing.T) {
	mA := testModelOn(t, "mobile", "lan_cong_severe")
	mB := testModelOn(t, "server", "wan_cong_severe")
	full := wideRow()
	onlyA := map[string]float64{"mobile.rtt": full["mobile.rtt"], "mobile.loss": full["mobile.loss"]}
	wantA, wantB, torn := mA.Diagnose(full).Class, mB.Diagnose(full).Class, mB.Diagnose(onlyA).Class
	if torn == wantA || torn == wantB {
		t.Fatalf("fixture cannot tell: A %q, B %q, B on A's keys %q", wantA, wantB, torn)
	}

	w := newWedge()
	e := NewEngine(mA, Config{Shards: 1, QueueDepth: 1, InjectFault: w.fault})
	defer e.Close()
	held := w.hold(e, 1) // the engine's one row of admission

	line, err := json.Marshal(map[string]any{"id": "wide", "features": full})
	if err != nil {
		t.Fatal(err)
	}
	h := e.Handler()
	answer := make(chan string, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diagnose", bytes.NewReader(line)))
		answer <- rec.Body.String()
	}()
	awaitWaiters(e, 1) // decoded against A, waiting for admission
	e.Reload(mB)
	w.release()
	<-held

	var got Result
	if err := json.Unmarshal([]byte(<-answer), &got); err != nil {
		t.Fatal(err)
	}
	if got.Class != wantA {
		t.Fatalf("row decoded against A answered %+v, want A's %q (B's %q, torn %q)", got, wantA, wantB, torn)
	}

	// A body decoded after the reload is B's.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diagnose", bytes.NewReader(line)))
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got.Class != wantB {
		t.Fatalf("after the reload: %+v %v, want B's %q", got, err, wantB)
	}
}
