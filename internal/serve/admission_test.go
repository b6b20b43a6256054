package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// wedge is an InjectFault that parks every row whose ID starts with
// "wedge" until release, so a test can hold admission with rows that
// are admitted and not yet answered.
type wedge struct {
	entered, gate chan struct{}
	once          sync.Once
}

func newWedge() *wedge {
	return &wedge{entered: make(chan struct{}), gate: make(chan struct{})}
}

func (w *wedge) fault(r *Request) error {
	if strings.HasPrefix(r.ID, "wedge") {
		w.once.Do(func() { close(w.entered) })
		<-w.gate
	}
	return nil
}

// hold sends a body of rows wedge rows, at most one chunk, from its own
// goroutine and returns once they are all admitted and the first is
// parked. The body's answers arrive on the channel after release.
func (w *wedge) hold(e *Engine, rows int) <-chan []Result {
	body := make([]Request, rows)
	for i := range body {
		body[i] = Request{ID: fmt.Sprintf("wedge%d", i), Features: fv(50, 0)}
	}
	out := make(chan []Result, 1)
	go func() { out <- e.DiagnoseBatch(body) }()
	<-w.entered
	return out
}

func (w *wedge) release() { close(w.gate) }

// awaitWaiters returns once n goroutines wait on the engine's admission
// (or in Close).
func awaitWaiters(e *Engine, n int) {
	for {
		e.mu.Lock()
		got := e.waiting
		e.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionBlockLargeBody: under Block, a body three times the
// admission limit completes with every row classified. Its two
// goroutines each hold a full-limit chunk in turn, so each waits for
// the other's room; no chunk is larger than the limit, so neither can
// wait forever.
func TestAdmissionBlockLargeBody(t *testing.T) {
	e := NewEngine(testModel(t, "lan_cong_severe"), Config{Shards: 2, QueueDepth: 4})
	reqs := make([]Request, 3*e.limit)
	for i := range reqs {
		reqs[i] = Request{ID: fmt.Sprint(i), Features: fv(180, 9)}
	}
	for i, r := range e.DiagnoseBatch(reqs) {
		if r.ID != reqs[i].ID || r.Class != "lan_cong_severe" {
			t.Fatalf("row %d: %+v", i, r)
		}
	}
	e.Close()
	if sub, reqd, errs, shed := e.Counters(); sub != uint64(len(reqs)) || reqd != sub || errs != 0 || shed != 0 {
		t.Errorf("submitted=%d classified=%d errors=%d shed=%d, want %d, %d, 0 and 0", sub, reqd, errs, shed, len(reqs), len(reqs))
	}
}

// TestChunksRunInParallel pins what vqdiag -parallel and vqfleet rely
// on: with two shards, an 8-row body in 4-row chunks has both chunks in
// flight at once, and with one shard never. A barrier in InjectFault
// waits, on each chunk's first row, for the other chunk's first row.
func TestChunksRunInParallel(t *testing.T) {
	for _, tc := range []struct {
		shards int
		wait   time.Duration // how long a first row waits for the other
		both   bool
	}{
		{2, 10 * time.Second, true},
		{1, 50 * time.Millisecond, false},
	} {
		var inFlight atomic.Int32
		var both atomic.Bool
		e := NewEngine(testModel(t, "lan_cong_severe"), Config{
			Shards: tc.shards, MaxBatch: 4,
			InjectFault: func(r *Request) error {
				if r.ID != "r0" && r.ID != "r4" {
					return nil
				}
				defer inFlight.Add(-1)
				timeout := time.After(tc.wait)
				for n := inFlight.Add(1); n < 2 && !both.Load(); n = inFlight.Load() {
					select {
					case <-timeout:
						return nil
					case <-time.After(time.Millisecond):
					}
				}
				both.Store(true)
				return nil
			},
		})
		reqs := make([]Request, 8)
		for i := range reqs {
			reqs[i] = Request{ID: fmt.Sprintf("r%d", i), Features: fv(50, 0)}
		}
		for i, r := range e.DiagnoseBatch(reqs) {
			if r.Class != "good" {
				t.Fatalf("shards=%d row %d: %+v", tc.shards, i, r)
			}
		}
		e.Close()
		if got := both.Load(); got != tc.both {
			t.Errorf("shards=%d: two chunks in flight at once = %v, want %v", tc.shards, got, tc.both)
		}
	}
}
