package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vqprobe/internal/features"
	"vqprobe/internal/metrics"
	"vqprobe/internal/ml"
	"vqprobe/internal/ml/c45"
)

// refResult computes the scalar-path reference answer for one request:
// what the engine must return regardless of sharding or batching.
func refResult(m *Model, req Request) Result {
	if err := ValidateFeatures(req.Features); err != nil {
		return Result{ID: req.ID, Err: err.Error()}
	}
	var r Result
	if req.Explain {
		r = m.DiagnoseExplain(metrics.Vector(req.Features))
	} else {
		r = m.Diagnose(metrics.Vector(req.Features))
	}
	r.ID = req.ID
	return r
}

// TestDiagnoseBatchWorkerInvariance pins the batched pipeline against
// the scalar reference across shard counts and batch sizes: every
// request — plain, explain, missing-feature, invalid — must come back
// identical whether it was classified alone or as one row of a pooled
// matrix sweep. Run with -race.
func TestDiagnoseBatchWorkerInvariance(t *testing.T) {
	m := testModel(t, "lan_cong_severe")

	var reqs []Request
	for i := 0; i < 64; i++ {
		reqs = append(reqs, Request{
			ID:       "s" + string(rune('a'+i%26)),
			Features: fv(float64(10+i*3), float64(i%11)),
			Explain:  i%7 == 0,
		})
	}
	reqs = append(reqs,
		Request{ID: "missing", Features: map[string]float64{"mobile.rtt": 150}},
		Request{ID: "empty", Features: map[string]float64{}},
		Request{ID: "nan", Features: map[string]float64{"mobile.rtt": math.NaN()}},
		Request{ID: "inf", Features: map[string]float64{"mobile.loss": math.Inf(1)}},
	)
	want := make([]Result, len(reqs))
	for i, req := range reqs {
		want[i] = refResult(m, req)
	}

	for _, cfg := range []Config{
		{Shards: 1, MaxBatch: 1},
		{Shards: 3, MaxBatch: 4},
		{Shards: 8, MaxBatch: 32},
	} {
		e := NewEngine(m, cfg)
		got := e.DiagnoseBatch(reqs)
		e.Close()
		for i := range got {
			gb, _ := json.Marshal(got[i])
			wb, _ := json.Marshal(want[i])
			if string(gb) != string(wb) {
				t.Fatalf("shards=%d maxbatch=%d request %d diverged from scalar reference\ngot:  %s\nwant: %s",
					cfg.Shards, cfg.MaxBatch, i, gb, wb)
			}
		}
		sub, reqd, errs, _ := e.Counters()
		if sub != reqd+errs {
			t.Fatalf("shards=%d maxbatch=%d accounting broken: submitted=%d requests=%d errs=%d",
				cfg.Shards, cfg.MaxBatch, sub, reqd, errs)
		}
	}
}

// TestSameSessionCompletesInSubmissionOrder pins Request.ID's ordering
// contract within one drained batch: a row that finishes early — an
// explain row, or one failed by validation — must not complete before
// an earlier plain row of the same session. A blocker parks the single
// worker in its done callback so both rows queue into one batch.
func TestSameSessionCompletesInSubmissionOrder(t *testing.T) {
	nan := map[string]float64{"mobile.rtt": math.NaN()}
	for name, late := range map[string]Request{
		"explain": {ID: "s", Features: fv(150, 7), Explain: true},
		"invalid": {ID: "s", Features: nan},
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(testModel(t, "lan_cong_severe"), Config{Shards: 1})
			defer e.Close()

			blocked, release := make(chan struct{}), make(chan struct{})
			var blockRes Result
			if err := e.Submit(Request{ID: "block", Features: fv(50, 0)}, &blockRes, func() {
				close(blocked)
				<-release
			}); err != nil {
				t.Fatal(err)
			}
			<-blocked

			var mu sync.Mutex
			var order []string
			var wg sync.WaitGroup
			res := make([]Result, 2)
			for i, req := range []Request{{ID: "s", Features: fv(50, 0)}, late} {
				tag := [...]string{"plain", "late"}[i]
				wg.Add(1)
				if err := e.Submit(req, &res[i], func() {
					mu.Lock()
					order = append(order, tag)
					mu.Unlock()
					wg.Done()
				}); err != nil {
					t.Fatal(err)
				}
			}
			close(release)
			wg.Wait()

			if len(order) != 2 || order[0] != "plain" || order[1] != "late" {
				t.Fatalf("same-session completion order = %v, want [plain late]", order)
			}
			if res[0].Err != "" || res[0].Class != "good" {
				t.Fatalf("plain row: %+v", res[0])
			}
			if (late.Explain && res[1].Rule == "") || (!late.Explain && res[1].Err == "") {
				t.Fatalf("late row answered wrongly: %+v", res[1])
			}
		})
	}
}

// panicPredictor poisons the batch sweep itself: prep succeeds, then
// PredictBatchIdx panics. The sweep is the engine's only classification
// path, so the worker's sweep recovery is what is on trial.
type panicPredictor struct {
	sweeps atomic.Int64
}

func (p *panicPredictor) Schema() []string            { return []string{"mobile.rtt"} }
func (p *panicPredictor) Classes() []string           { return []string{"good"} }
func (p *panicPredictor) Nodes() int                  { return 1 }
func (p *panicPredictor) Trees() int                  { return 1 }
func (p *panicPredictor) PredictRow([]float64) string { return "good" }
func (p *panicPredictor) NewMatrix(capacity int) *c45.Matrix {
	return c45.NewMatrix([]string{"mobile.rtt"}, capacity)
}
func (p *panicPredictor) PredictBatchIdx(*c45.Matrix, *c45.BatchScratch, []int32) {
	p.sweeps.Add(1)
	panic("poisoned batch sweep")
}

// TestBatchSweepPanicRecovered pins the batch-path recovery added with
// the pooled-matrix pipeline: a panic inside PredictBatchIdx must fail
// every request of that sweep with a recovered-panic error, trip the
// PR-5 panic counter, keep the accounting invariant, and leave the
// shard workers alive to serve the next (healthy) model.
func TestBatchSweepPanicRecovered(t *testing.T) {
	stub := &panicPredictor{}
	bad := NewBatchModel("exact", nil, stub)
	e := NewEngine(bad, Config{Shards: 2, MaxBatch: 8})
	defer e.Close()

	var reqs []Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, Request{ID: "p", Features: fv(50, 1)})
	}
	res := e.DiagnoseBatch(reqs)
	for i, r := range res {
		if !strings.Contains(r.Err, "recovered panic") {
			t.Fatalf("result %d not failed by sweep panic: %+v", i, r)
		}
	}
	if got := stub.sweeps.Load(); got == 0 {
		t.Fatal("batch sweep never ran")
	}
	if got := e.obs.panics.Value(); got == 0 {
		t.Fatal("panic counter untouched by sweep panic")
	}
	sub, reqd, errs, _ := e.Counters()
	if reqd != 0 || sub != errs || sub != uint64(len(reqs)) {
		t.Fatalf("accounting broken after sweep panics: submitted=%d requests=%d errs=%d", sub, reqd, errs)
	}

	// The workers must have survived: a hot reload to a healthy model
	// serves the next batch normally.
	e.Reload(testModel(t, "lan_cong_severe"))
	res = e.DiagnoseBatch([]Request{{ID: "ok", Features: fv(150, 7)}})
	if res[0].Err != "" || res[0].Class != "lan_cong_severe" {
		t.Fatalf("engine did not recover after sweep panic: %+v", res[0])
	}
}

// forestModel trains a small bagged forest on the testModel dataset and
// wraps it as a serving snapshot.
func forestModel(t testing.TB) *Model {
	t.Helper()
	var insts []ml.Instance
	for rtt := 10.0; rtt <= 200; rtt += 10 {
		for loss := 0.0; loss <= 10; loss++ {
			cls := "good"
			if rtt > 100 {
				if loss > 5 {
					cls = "lan_cong_severe"
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
	f := c45.NewForest(c45.ForestConfig{Trees: 7, Seed: 3}).TrainForest(constructed)
	cf, err := c45.CompileForest(f)
	if err != nil {
		t.Fatal(err)
	}
	return NewBatchModel("exact", norm, cf)
}

// TestForestModelServing runs an ensemble snapshot through the full
// engine: batched classification must match the scalar reference,
// explain requests answer with a per-request error (a vote has no
// single path) unless an earlier check already failed them, and
// /healthz + /metrics expose the forest's identity.
func TestForestModelServing(t *testing.T) {
	m := forestModel(t)
	if info := m.Info(); info.Kind != "forest" || info.Trees != 7 || info.Nodes <= 0 {
		t.Fatalf("forest ModelInfo wrong: %+v", info)
	}

	e := NewEngine(m, Config{Shards: 2, MaxBatch: 8})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	var reqs []Request
	for i := 0; i < 20; i++ {
		reqs = append(reqs, Request{ID: "f", Features: fv(float64(10+i*10), float64(i%11))})
	}
	res := e.DiagnoseBatch(reqs)
	for i, r := range res {
		want := refResult(m, reqs[i])
		if r.Err != "" || r.Class != want.Class || r.Severity != want.Severity || r.Cause != want.Cause {
			t.Fatalf("forest request %d: got %+v, want %+v", i, r, want)
		}
	}

	expReqs := []Request{
		{ID: "e", Features: fv(150, 7), Explain: true},
		{ID: "e", Features: map[string]float64{"mobile.rtt": math.NaN()}, Explain: true},
		{ID: "e", Features: fv(40, 2), Explain: true},
		{ID: "e", Features: fv(150, 7)},
	}
	exp := e.DiagnoseBatch(expReqs)
	for _, i := range []int{0, 2} {
		if exp[i].Err != errExplainForest {
			t.Fatalf("explain %d on forest: got %+v, want error %q", i, exp[i], errExplainForest)
		}
	}
	if want := refResult(m, expReqs[1]).Err; !strings.Contains(want, "non-finite") || exp[1].Err != want {
		t.Fatalf("NaN explain on forest: got %+v, want error %q", exp[1], want)
	}
	if want := refResult(m, expReqs[3]); exp[3].Err != "" || exp[3].Class != want.Class {
		t.Fatalf("plain row beside forest explains: got %+v, want %+v", exp[3], want)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Model ModelInfo `json:"model"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Model.Kind != "forest" || health.Model.Trees != 7 || health.Model.Nodes != m.Info().Nodes {
		t.Fatalf("/healthz model section wrong: %+v", health.Model)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if got := metricValue(t, body, "vqserve_model_trees"); got != 7 {
		t.Fatalf("vqserve_model_trees = %v, want 7", got)
	}
	if got := metricValue(t, body, "vqserve_model_nodes"); got != float64(m.Info().Nodes) {
		t.Fatalf("vqserve_model_nodes = %v, want %d", got, m.Info().Nodes)
	}
	if !strings.Contains(body, `vqserve_model_info{kind="forest"`) {
		t.Fatalf("vqserve_model_info identity series missing:\n%.400s", body)
	}
}

// TestModelInfoGaugeFollowsReload pins the identity-series handover: a
// reload lights the new model's vqserve_model_info series and drops the
// previous one to 0.
func TestModelInfoGaugeFollowsReload(t *testing.T) {
	tree := testModel(t, "lan_cong_severe")
	e := NewEngine(tree, Config{Shards: 1})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	e.Reload(forestModel(t))
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if !strings.Contains(body, `vqserve_model_info{kind="tree",snapshot=""} 0`) {
		t.Fatalf("stale tree identity not dropped to 0:\n%s", grepLines(body, "vqserve_model_info"))
	}
	if !strings.Contains(body, `vqserve_model_info{kind="forest",snapshot=""} 1`) {
		t.Fatalf("forest identity not lit:\n%s", grepLines(body, "vqserve_model_info"))
	}
	if got := metricValue(t, body, "vqserve_model_trees"); got != 7 {
		t.Fatalf("vqserve_model_trees = %v after reload, want 7", got)
	}
}

func grepLines(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
