package main

import (
	"bytes"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vqprobe/internal/ml/c45"
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

// TestBadModelFileLeavesEngineDegraded: a model JSON whose internal node
// lacks a child fails to load with c45.ErrMalformedTree, and neither a
// POST /-/reload nor the -watch loop lets it take the daemon down. Each
// leaves the engine degraded, answering from its last-good model.
func TestBadModelFileLeavesEngineDegraded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	write := func(tree string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(`{"task":"exact","tree":`+tree+`}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(`{"features":["a"],"classes":["good","bad"],"root":{"f":-1,"c":0,"d":[1,0],"w":1}}`)
	good, err := loadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	write(`{"features":["a"],"classes":["good","bad"],"root":{"f":0,"t":1,"c":0,"w":2,"l":{"f":-1,"c":0,"d":[1,0],"w":1}}}`)
	if _, err := loadModel(path); !errors.Is(err, c45.ErrMalformedTree) {
		t.Fatalf("loading the nil-child model: %v, want c45.ErrMalformedTree", err)
	}

	degradedOnGood := func(t *testing.T, eng *serve.Engine) {
		t.Helper()
		h := eng.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"degraded"`) {
			t.Fatalf("healthz after the bad reload: HTTP %d %s", rec.Code, rec.Body.String())
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diagnose", strings.NewReader(`{"id":"s","features":{"a":2}}`+"\n")))
		if !strings.HasPrefix(rec.Body.String(), `{"id":"s","class":"good",`) {
			t.Fatalf("answer after the bad reload: %q, want the last-good model's class good", rec.Body.String())
		}
	}

	t.Run("reload endpoint", func(t *testing.T) {
		eng := serve.NewEngine(good, serve.Config{Shards: 1, ReloadFunc: func() (*serve.Model, error) { return loadModel(path) }})
		defer eng.Close()
		rec := httptest.NewRecorder()
		eng.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/-/reload", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("reloading the bad model: HTTP %d %s, want 500", rec.Code, rec.Body.String())
		}
		degradedOnGood(t, eng)
	})

	t.Run("watch", func(t *testing.T) {
		eng := serve.NewEngine(good, serve.Config{Shards: 1})
		defer eng.Close()
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			watchModel(eng, slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil)), path, 5*time.Millisecond, stop)
		}()
		// The watcher notes the file's mtime when it starts and reloads
		// once it moves later; each try moves it later still, so it moves
		// after the watcher's first look whenever that happens.
		future := time.Now().Add(time.Hour)
		for deadline := time.Now().Add(5 * time.Second); eng.LastReloadError() == ""; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the watcher never tried the bad model")
			}
			future = future.Add(time.Second)
			if err := os.Chtimes(path, future, future); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		<-done
		degradedOnGood(t, eng)
	})
}
