package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one traffic mix. The reasons each exists are in
// BENCHMARK.json and README.md.
type workload struct {
	name     string
	conns    int  // client connections, each a caller waiting for its answer
	rows     int  // rows per request
	explain  bool // one row in explainEvery asks for the decision path
	narrow   bool // send only the keys Model reads
	replicas int  // vqserve processes
	router   bool // front the replicas with vqroute
}

// Batch sizes. A wide row is ~13 KB of NDJSON and decodes at ~2–4k rows/s
// on one core, so 8-row batches still give the 2000+ round trips per
// window that a p99 with ten samples beyond it needs on a slow host.
// Narrow rows are ~40× cheaper, so narrow batches are as large as an
// end-of-interval upload and fill the engine's 32-row batches.
const (
	wideRows   = 8
	narrowRows = 100
)

var workloads = []workload{
	{name: "interactive", conns: 1, rows: 1, explain: true, replicas: 1},
	{name: "bulk-wide", conns: 2, rows: wideRows, replicas: 1},
	{name: "bulk-narrow", conns: 2, rows: narrowRows, narrow: true, replicas: 1},
	{name: "fleet-narrow", conns: 2, rows: narrowRows, narrow: true, replicas: 2, router: true},
}

// explainEvery: one interactive row in explainEvery asks for the
// decision path.
const explainEvery = 5

// answered is one request answered inside the measured window.
type answered struct {
	at   time.Duration // when the answer arrived, since the window opened
	lat  float64       // round trip, ms
	rows int
}

// loadResult is what a load run measured.
type loadResult struct {
	opened        time.Time // when the measured window opened
	window        time.Duration
	answers       []answered // in the measured window, in arrival order
	attempted     int64      // rows sent in the measured window
	failed        int64      // of those, rows not answered correctly
	mismatched    int64      // of those, rows answered with a wrong class or rule
	failedOther   int64      // failed rows outside the window (warm-up, drain)
	before, after snapshot
}

// snapshot is the daemons' state at one instant of the run.
type snapshot struct {
	cpu     []int64              // per daemon, ns
	metrics []map[string]float64 // per daemon, parsed /metrics
}

func (fl *fleet) snapshot(ctx context.Context) (snapshot, error) {
	var s snapshot
	for _, d := range fl.daemons {
		c, err := d.cpuNS()
		if err != nil {
			return s, err
		}
		m, err := d.metrics(ctx)
		if err != nil {
			return s, err
		}
		s.cpu = append(s.cpu, c)
		s.metrics = append(s.metrics, m)
	}
	return s, nil
}

// client posts /diagnose bodies over at most conns keep-alive
// connections.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, url: url + "/diagnose"}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one body and reads the whole response into buf.
func (c *client) post(ctx context.Context, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// connections is the workload's client connection count, never more
// than the machine has CPUs.
func connections(wl workload, nproc int) int { return max(1, min(wl.conns, nproc)) }

// runClosed drives the closed loop: conns callers each send the next
// request as soon as the previous one is answered. Requests answered
// inside the measured window count; latency is per round trip.
func runClosed(ctx context.Context, fl *fleet, g *requestGen, conns int, warm, measure time.Duration) (*loadResult, error) {
	c := newClient(fl.front.url, conns)
	defer c.close()
	start := time.Now()
	mStart, mEnd := start.Add(warm), start.Add(warm+measure)
	res := &loadResult{opened: mStart, window: measure}
	var mu sync.Mutex // guards res's tallies
	var next atomic.Int64
	var stop atomic.Bool
	errc := make(chan error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body []byte
			var rows []row
			var buf bytes.Buffer
			for !stop.Load() && ctx.Err() == nil {
				k := next.Add(1) - 1
				rows = g.request(k, rows)
				body = g.body(body[:0], k, rows)
				t0 := time.Now()
				status, err := c.post(ctx, body, &buf)
				t1 := time.Now()
				if err != nil && ctx.Err() == nil {
					errc <- fmt.Errorf("request %d: %w", k, err)
					return
				}
				failed, mism := g.check(k, rows, status, buf.Bytes())
				mu.Lock()
				if t1.Before(mStart) || t1.After(mEnd) {
					res.failedOther += int64(failed)
				} else {
					res.answers = append(res.answers, answered{at: t1.Sub(mStart), lat: float64(t1.Sub(t0).Nanoseconds()) / 1e6, rows: len(rows)})
					res.attempted += int64(len(rows))
					res.failed += int64(failed)
					res.mismatched += int64(mism)
				}
				mu.Unlock()
			}
		}()
	}
	err := sampleWindow(ctx, fl, mStart, mEnd, res)
	stop.Store(true)
	wg.Wait()
	close(errc)
	for e := range errc {
		err = e
	}
	return res, err
}

// sampleWindow reads the daemons' counters when the measured window
// opens and when it closes.
func sampleWindow(ctx context.Context, fl *fleet, from, to time.Time, res *loadResult) error {
	var err error
	if err = sleepUntil(ctx, from); err == nil {
		if res.before, err = fl.snapshot(ctx); err == nil {
			if err = sleepUntil(ctx, to); err == nil {
				res.after, err = fl.snapshot(ctx)
			}
		}
	}
	return err
}

func sleepUntil(ctx context.Context, t time.Time) error {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}
