package serve

import (
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
				Features: metrics.Vector{"mobile.rtt": rtt, "mobile.loss": loss},
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
// features, ratio-normalized tcp counters, and missing values.
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

func TestEngineDrainOnClose(t *testing.T) {
	e := NewEngine(testModel(t, "lan_cong_severe"), Config{Shards: 2, QueueDepth: 512})
	const n = 500
	res := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		if err := e.Submit(Request{ID: fmt.Sprint(i), Features: fv(180, 9)}, &res[i], wg.Done); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := range res {
		if res[i].Class != "lan_cong_severe" {
			t.Fatalf("request %d dropped on close: %+v", i, res[i])
		}
	}
	if _, err := e.Close(), e.Submit(Request{}, &Result{}, func() {}); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestEngineShedPolicy(t *testing.T) {
	e := NewEngine(testModel(t, "lan_cong_severe"), Config{
		Shards: 1, QueueDepth: 1, MaxBatch: 1, Policy: Shed,
	})
	defer e.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	var r1, r2 Result
	// Job 1 stalls the worker inside its completion callback.
	if err := e.Submit(Request{ID: "a", Features: fv(20, 0)}, &r1, func() {
		close(started)
		<-release
		wg.Done()
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	// Worker is stalled: job 2 fills the depth-1 queue, job 3 sheds.
	if err := e.Submit(Request{ID: "b", Features: fv(20, 0)}, &r2, wg.Done); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(Request{ID: "c", Features: fv(20, 0)}, &Result{}, func() {}); err != ErrOverloaded {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	if got := e.Registry().Counter("vqserve_shed_total", "").Value(); got != 1 {
		t.Fatalf("vqserve_shed_total = %d, want 1", got)
	}
	close(release)
	wg.Wait()
	if r1.Class != "good" || r2.Class != "good" {
		t.Fatalf("queued jobs not processed: %+v %+v", r1, r2)
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
