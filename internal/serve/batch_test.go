package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vqprobe/internal/metrics"
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

// panicPredictor poisons the batch sweep itself: prep succeeds, then
// PredictBatchIdx panics. The sweep is the engine's only classification
// path, so the sweep's recovery is what is on trial.
type panicPredictor struct {
	sweeps atomic.Int64
}

func (p *panicPredictor) Schema() []string            { return []string{"mobile.rtt"} }
func (p *panicPredictor) Classes() []string           { return []string{"good"} }
func (p *panicPredictor) Nodes() int                  { return 1 }
func (p *panicPredictor) PredictRow([]float64) string { return "good" }
func (p *panicPredictor) PredictRowExplain([]float64) *c45.Explanation {
	return &c45.Explanation{Class: "good"}
}
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
// panic counter, keep the accounting invariant, and leave the engine
// able to serve the next (healthy) model.
func TestBatchSweepPanicRecovered(t *testing.T) {
	stub := &panicPredictor{}
	bad := NewModel("exact", nil, stub)
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

	// The engine must have survived: a hot reload to a healthy model
	// serves the next batch normally.
	e.Reload(testModel(t, "lan_cong_severe"))
	res = e.DiagnoseBatch([]Request{{ID: "ok", Features: fv(150, 7)}})
	if res[0].Err != "" || res[0].Class != "lan_cong_severe" {
		t.Fatalf("engine did not recover after sweep panic: %+v", res[0])
	}
}

// TestModelInfoGaugeFollowsReload pins the identity-series handover: a
// reload lights the new model's vqserve_model_info series and drops the
// previous one to 0.
func TestModelInfoGaugeFollowsReload(t *testing.T) {
	a := testModel(t, "lan_cong_severe")
	a.SetProvenance("aaaaaaaaaaaa", time.Millisecond)
	e := NewEngine(a, Config{Shards: 1})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	b := testModel(t, "wan_severe")
	b.SetProvenance("bbbbbbbbbbbb", 2*time.Millisecond)
	e.Reload(b)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if !strings.Contains(body, `vqserve_model_info{snapshot="aaaaaaaaaaaa"} 0`) {
		t.Fatalf("stale identity not dropped to 0:\n%s", grepLines(body, "vqserve_model_info"))
	}
	if !strings.Contains(body, `vqserve_model_info{snapshot="bbbbbbbbbbbb"} 1`) {
		t.Fatalf("reloaded identity not lit:\n%s", grepLines(body, "vqserve_model_info"))
	}
	if got := metricValue(t, body, "vqserve_model_nodes"); got != float64(b.Info().Nodes) {
		t.Fatalf("vqserve_model_nodes = %v after reload, want %d", got, b.Info().Nodes)
	}
	if got := metricValue(t, body, "vqserve_model_load_seconds"); got != 0.002 {
		t.Fatalf("vqserve_model_load_seconds = %v after reload, want 0.002", got)
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

// TestDiagnoseBatchAllocs bounds a 100-row batch's allocations by far
// fewer than one per row: the results slice and a few fixed costs. A
// per-row allocation would add a hundred.
func TestDiagnoseBatchAllocs(t *testing.T) {
	e := NewEngine(testModel(t, "lan_cong_severe"), Config{Shards: 1, MaxBatch: 32})
	defer e.Close()
	reqs := make([]Request, 100)
	for i := range reqs {
		reqs[i] = Request{ID: "s" + string(rune('a'+i%26)), Features: fv(float64(10+i), float64(i%10))}
	}
	e.DiagnoseBatch(reqs) // warm the pooled scratch
	if n := testing.AllocsPerRun(20, func() { e.DiagnoseBatch(reqs) }); n > 10 {
		t.Fatalf("%v allocs per 100-row DiagnoseBatch, want at most 10", n)
	}
}
