package serve

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"vqprobe/internal/metrics"
)

// stepClock is a fake engine clock: every reading advances it by step
// and is counted. Tests change step between DiagnoseBatch calls, while
// the engine is idle.
type stepClock struct {
	mu    sync.Mutex
	t     time.Time
	step  time.Duration
	reads int
}

func (c *stepClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	c.reads++
	return c.t
}

func (c *stepClock) setStep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.step = d
}

func (c *stepClock) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads
}

// newClockedEngine starts an engine whose clock is a stepClock. The
// fake goes in before the first body, so every stage reads only it.
func newClockedEngine(t *testing.T, cfg Config, step time.Duration) (*Engine, *stepClock) {
	t.Helper()
	e := NewEngine(testModel(t, "lan_cong_severe"), cfg)
	clk := &stepClock{t: time.Unix(1_700_000_000, 0), step: step}
	e.now = clk.now
	t.Cleanup(func() { e.Close() })
	return e, clk
}

// stageHist is the engine's vqserve_stage_latency_seconds series for
// stage.
func stageHist(e *Engine, stage string) *metrics.Histogram {
	return e.reg.Histogram(fmt.Sprintf("vqserve_stage_latency_seconds{stage=%q}", stage), "", nil)
}

// TestClockReadsPerBody bounds the engine's clock reads for one 100-row
// body: one for the body's enqueue, then one per chunk at admission
// and two per sweep. Reading per row made ~4 per row.
func TestClockReadsPerBody(t *testing.T) {
	e, clk := newClockedEngine(t, Config{Shards: 1, MaxBatch: 32}, time.Microsecond)
	reqs := make([]Request, 100)
	for i := range reqs {
		reqs[i] = Request{ID: "s", Features: fv(float64(10+i), float64(i%10))}
	}
	for _, r := range e.DiagnoseBatch(reqs) {
		if r.Err != "" {
			t.Fatalf("row failed: %s", r.Err)
		}
	}
	batches := int(e.obs.batchSize.Count())
	if reads := clk.count(); reads > 1+3*batches {
		t.Fatalf("%d clock reads for one 100-row body in %d batches, want at most %d", reads, batches, 1+3*batches)
	}
}

// TestStageTimingsFixedStep pins every stage's timing on a clock that
// advances 1s per reading. A first one-row body wedges inside prep,
// holding one of the engine's four rows of admission, so a second,
// four-row body waits for admission until the first is answered; it is
// then admitted as one chunk and classified in one sweep. The readings
// in order are: body 1 enqueued (1s), admitted (2s); body 2 enqueued
// (3s); body 1 prepped (4s), swept (5s); body 2 admitted (6s), prepped
// (7s), swept (8s).
func TestStageTimingsFixedStep(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	e, _ := newClockedEngine(t, Config{Shards: 1, QueueDepth: 4, InjectFault: func(*Request) error {
		once.Do(func() { close(entered); <-gate })
		return nil
	}}, time.Second)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); e.DiagnoseBatch([]Request{{ID: "first", Features: fv(50, 0)}}) }()
	<-entered
	body := make([]Request, 4)
	for i := range body {
		body[i] = Request{ID: "second", Features: fv(150, 8)}
	}
	go func() { defer wg.Done(); e.DiagnoseBatch(body) }()
	awaitWaiters(e, 1)
	close(gate)
	wg.Wait()

	for _, tc := range []struct {
		stage string
		sum   float64
	}{
		// body 1: 2-1; body 2: 4 rows × (6-3)
		{"queue", 1 + 4*3},
		// body 1: 4-2; body 2: (7-6) shared by 4 rows
		{"normalize", 2 + 4*0.25},
		// body 1: 5-4; body 2: (8-7) shared by 4 rows
		{"predict", 1 + 4*0.25},
		// body 1: 5-1; body 2: 4 rows × (8-3)
		{"total", 4 + 4*5},
	} {
		got := stageHist(e, tc.stage)
		if got.Count() != 5 || got.Sum() != tc.sum {
			t.Errorf("stage %s: count %d sum %v, want 5 and %v", tc.stage, got.Count(), got.Sum(), tc.sum)
		}
	}
}

// TestStageCountsMatchAccounting runs one engine through plain rows, an
// explain row, a NaN row and a panicking row, then drains it. Every
// admitted row waited for admission, so the queue stage counts every
// submission; only classified rows reach the other stages.
func TestStageCountsMatchAccounting(t *testing.T) {
	e, _ := newClockedEngine(t, Config{
		Shards: 1,
		InjectFault: func(r *Request) error {
			if r.ID == "boom" {
				panic("injected")
			}
			return nil
		},
	}, time.Millisecond)
	e.DiagnoseBatch([]Request{
		{ID: "a", Features: fv(50, 0)},
		{ID: "b", Features: fv(150, 8)},
		{ID: "c", Features: fv(150, 2), Explain: true},
		{ID: "d", Features: fv(math.NaN(), 0)},
		{ID: "boom", Features: fv(50, 0)},
	})
	e.Close()
	submitted, requests, errs, _ := e.Counters()
	if submitted != 5 || requests != 3 || errs != 2 {
		t.Fatalf("submitted=%d classified=%d errors=%d, want 5, 3 and 2", submitted, requests, errs)
	}
	if n := stageHist(e, "queue").Count(); n != submitted {
		t.Errorf("queue stage count %d, want submitted = %d", n, submitted)
	}
	for _, s := range []string{"normalize", "predict", "total"} {
		if n := stageHist(e, s).Count(); n != requests {
			t.Errorf("%s stage count %d, want requests = %d", s, n, requests)
		}
	}
}
