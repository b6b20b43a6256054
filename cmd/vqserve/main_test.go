package main

import (
	"bytes"
	"log/slog"
	"net/http"
	"testing"
	"time"

	"vqprobe/internal/serve"
)

// TestDrainAndCloseBalancedAccounting pins the shutdown fix: after the
// listener and engine drain, every accepted request must have been
// answered (submitted == classified + errors) and the exit log must
// say so rather than report dropped requests.
func TestDrainAndCloseBalancedAccounting(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))

	// A nil model makes every request, explain ones included, fail with
	// "no model loaded" — errors still count toward the accounting
	// invariant.
	eng := serve.NewEngine(nil, serve.Config{Shards: 1})
	for i := 0; i < 5; i++ {
		res := eng.DiagnoseBatch([]serve.Request{{ID: "x", Features: map[string]float64{"f": 1}, Explain: i == 4}})
		if res[0].Err != "no model loaded" {
			t.Fatalf("request %d against a nil model: %+v, want \"no model loaded\"", i, res[0])
		}
	}

	srv := &http.Server{Addr: "127.0.0.1:0"} // never started; Shutdown is a no-op
	drainAndClose(logger, srv, eng, time.Second)

	out := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte("drained cleanly")) {
		t.Fatalf("drain did not report clean accounting:\n%s", out)
	}
	if bytes.Contains(buf.Bytes(), []byte("imbalance")) {
		t.Fatalf("drain reported dropped requests:\n%s", out)
	}
	submitted, requests, errs, _ := eng.Counters()
	if submitted != 5 || requests != 0 || errs != 5 {
		t.Fatalf("counters = submitted %d classified %d errors %d, want 5/0/5",
			submitted, requests, errs)
	}
}
