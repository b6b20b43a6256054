// Command vqserve is the always-on diagnosis daemon: it loads a trained
// model, compiles it for serving, and classifies live session records
// over HTTP through the internal/serve engine, each request body on its
// handler's goroutine.
//
// Usage:
//
//	vqserve -model model.json [-addr :8700] [-shards N] [-queue 256]
//	        [-batch 32] [-policy block|shed] [-watch 10s]
//	        [-log-format text|json] [-trace-buf 0] [-pprof-addr ""]
//	        [-obs 2s] [-obs-cap 360] [-slo slo.json]
//
// Endpoints:
//
//	POST /diagnose     NDJSON batch, one {"id","features"} object per line
//	                   (add "explain":true for the decision path + rule)
//	GET  /healthz      liveness + model summary + firing SLO alerts
//	GET  /metrics      Prometheus text exposition (OpenMetrics with
//	                   exemplar trace IDs via Accept negotiation)
//	GET  /vars         obs telemetry snapshot: ring-store history with
//	                   rates, windowed quantiles and SLO alert state
//	GET  /dashboard    self-contained HTML dashboard polling /vars
//	POST /-/reload     re-read -model and hot-swap it without downtime
//	GET  /debug/trace  span ring-buffer dump (only with -trace-buf > 0)
//
// The obs telemetry plane samples every metric into a fixed ring store
// each -obs interval and evaluates SLO burn-rate alerts (multi-window,
// Google SRE workbook style). -slo names a JSON objective file (see
// docs/OBSERVABILITY.md); without it the stock vqserve objectives
// apply. -obs 0 disables the plane and its endpoints entirely.
//
// -model (and -watch) accepts either model format: vqtrain's JSON or
// the binary snapshot from vqtrain -emit-snapshot. Snapshots decode in
// a single sequential read — no JSON parsing, no tree re-compilation —
// so hot-reload cost is independent of model size.
//
// With -watch, the model file's mtime is polled and the model reloads
// automatically when a retrainer overwrites it (continuous training).
// -trace-buf N keeps the last N spans in memory and stamps results and
// access logs with trace IDs; -pprof-addr serves net/http/pprof on a
// separate listener. Logs are structured (log/slog); -log-format json
// switches them to one JSON object per line.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"vqprobe"
	"vqprobe/internal/buildinfo"
	"vqprobe/internal/metrics"
	"vqprobe/internal/obs"
	"vqprobe/internal/serve"
	"vqprobe/internal/trace"
)

func loadModel(path string) (*serve.Model, error) {
	return vqprobe.LoadServingModel(path)
}

// newLogger builds the process logger: text (the default, human
// friendly) or json (one object per line, for log shippers).
func newLogger(format string) *slog.Logger {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, nil))
	default:
		fmt.Fprintf(os.Stderr, "vqserve: unknown -log-format %q (want text or json)\n", format)
		os.Exit(2)
		return nil
	}
}

func main() {
	var (
		modelPath = flag.String("model", "model.json", "trained model: vqtrain JSON or binary snapshot (-emit-snapshot)")
		addr      = flag.String("addr", ":8700", "HTTP listen address")
		shards    = flag.Int("shards", 0, "goroutines that classify one request body, its handler's included (0 = NumCPU)")
		queue     = flag.Int("queue", 256, "admission: at most shards × queue rows admitted and unanswered at once")
		batch     = flag.Int("batch", 32, "max rows per chunk: per model snapshot load and batch sweep")
		policy    = flag.String("policy", "block", "full-admission policy: block (backpressure) or shed")
		watch     = flag.Duration("watch", 0, "poll the model file and hot-reload on change (0 = off)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests on SIGTERM")
		logFmt    = flag.String("log-format", "text", "log output format: text or json")
		traceBuf  = flag.Int("trace-buf", 0, "span ring-buffer capacity; > 0 enables tracing and /debug/trace")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
		obsEvery  = flag.Duration("obs", 2*time.Second, "telemetry plane sampling interval; 0 disables /vars, /dashboard and SLO alerts")
		obsCap    = flag.Int("obs-cap", 360, "telemetry ring capacity in samples per series")
		sloPath   = flag.String("slo", "", "SLO objectives JSON (default: built-in vqserve objectives)")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "vqserve")
		return
	}
	logger := newLogger(*logFmt)
	slog.SetDefault(logger)

	var pol serve.Policy
	switch *policy {
	case "block":
		pol = serve.Block
	case "shed":
		pol = serve.Shed
	default:
		fmt.Fprintf(os.Stderr, "vqserve: unknown -policy %q (want block or shed)\n", *policy)
		os.Exit(2)
	}

	var tracer *trace.Tracer
	if *traceBuf > 0 {
		tracer = trace.New(trace.Config{Capacity: *traceBuf})
	}

	model, err := loadModel(*modelPath)
	if err != nil {
		logger.Error("loading model failed", "path", *modelPath, "err", err)
		os.Exit(1)
	}

	// The obs telemetry plane shares the engine's registry: burn-rate
	// gauges land next to the engine's own series and every counter the
	// engine registers is ring-sampled.
	var plane *obs.Plane
	var alertsFunc func() any
	reg := metrics.NewRegistry()
	metrics.RegisterGoRuntime(reg, "vqserve") // the CPU split between user code and GC, read at scrape time
	if *obsEvery > 0 {
		slos := obs.DefaultServeSLOs()
		if *sloPath != "" {
			f, err := os.Open(*sloPath)
			if err != nil {
				logger.Error("opening SLO config failed", "path", *sloPath, "err", err)
				os.Exit(1)
			}
			slos, err = obs.LoadSLOs(f)
			f.Close()
			if err != nil {
				logger.Error("loading SLO config failed", "path", *sloPath, "err", err)
				os.Exit(1)
			}
		}
		plane = obs.New(obs.Config{
			Registry: reg,
			Capacity: *obsCap,
			SLOs:     slos,
			Logger:   logger,
		})
		alertsFunc = func() any { return plane.FiringAlerts() }
	}

	eng := serve.NewEngine(model, serve.Config{
		Shards:     *shards,
		QueueDepth: *queue,
		MaxBatch:   *batch,
		Policy:     pol,
		Registry:   reg,
		ReloadFunc: func() (*serve.Model, error) { return loadModel(*modelPath) },
		Tracer:     tracer,
		AlertsFunc: alertsFunc,
	})
	info := model.Info()
	logger.Info("serving",
		"task", model.Task(), "nodes", info.Nodes, "load_ms", info.LoadMillis,
		"features", len(model.Schema()), "classes", len(model.Classes()),
		"addr", *addr, "tracing", tracer != nil)

	if *pprofAddr != "" {
		// pprof registers on http.DefaultServeMux; the diagnosis surface
		// uses its own mux, so the profile listener exposes nothing else.
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	stopWatch := make(chan struct{})
	if *watch > 0 {
		go watchModel(eng, logger, *modelPath, *watch, stopWatch)
	}

	handler := eng.Handler()
	if plane != nil {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("/vars", plane.VarsHandler())
		mux.Handle("/dashboard", plane.DashboardHandler())
		handler = mux
		go plane.RunWall(*obsEvery, stopWatch)
		logger.Info("obs plane sampling", "interval", *obsEvery, "capacity", *obsCap)
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: accessLog(logger, tracer, handler),
		// Bound how long a slow (or malicious) client may dribble its
		// request headers before tying up a connection.
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Error("server failed", "err", err)
		os.Exit(1)
	case s := <-sig:
		logger.Info("draining", "signal", s.String(), "deadline", *drain)
	}
	close(stopWatch)
	// A second signal during the drain forces immediate exit.
	go func() {
		s := <-sig
		logger.Warn("forced exit", "signal", s.String())
		os.Exit(1)
	}()
	drainAndClose(logger, srv, eng, *drain)
}

// drainAndClose shuts the HTTP listener down with a deadline, closes
// the engine once its admitted rows are answered, and verifies the
// request accounting balances: every admitted row was answered
// (classified or failed) before exit. An imbalance means requests were dropped on the
// floor and is reported as an error.
func drainAndClose(logger *slog.Logger, srv *http.Server, eng *serve.Engine, deadline time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("shutdown", "err", err)
	}
	if err := eng.Close(); err != nil {
		logger.Warn("engine close", "err", err)
	}
	submitted, requests, errs, shed := eng.Counters()
	if submitted != requests+errs {
		logger.Error("drain accounting imbalance: requests dropped",
			"submitted", submitted, "classified", requests, "errors", errs, "shed", shed)
		return
	}
	logger.Info("drained cleanly",
		"submitted", submitted, "classified", requests, "errors", errs, "shed", shed)
}

// statusWriter records the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// reqSeq numbers requests for log correlation when tracing is off.
var reqSeq atomic.Uint64

// accessLog wraps the diagnosis surface with one structured log line
// per request. With tracing enabled each request also records an
// "http" span whose ID is the log line's trace_id, tying access logs
// to /debug/trace output and histogram exemplars.
func accessLog(logger *slog.Logger, tr *trace.Tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		span := tr.StartSpan("http", r.Method+" "+r.URL.Path, 0)
		var tid string
		if span.Active() {
			tid = strconv.FormatUint(uint64(span.ID()), 16)
		} else {
			tid = "r" + strconv.FormatUint(reqSeq.Add(1), 10)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		span.EndDetail("status=" + strconv.Itoa(sw.status))
		logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration_ms", float64(time.Since(start).Microseconds())/1000,
			"trace_id", tid)
	})
}

// watchModel polls the model file's mtime and hot-swaps the engine's
// snapshot when it changes; load errors keep the old model serving.
func watchModel(eng *serve.Engine, logger *slog.Logger, path string, every time.Duration, stop <-chan struct{}) {
	var last time.Time
	if st, err := os.Stat(path); err == nil {
		last = st.ModTime()
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		st, err := os.Stat(path)
		if err != nil || !st.ModTime().After(last) {
			continue
		}
		m, err := loadModel(path)
		if err != nil {
			// Keep serving the last-good model; /healthz turns degraded
			// until a subsequent reload succeeds.
			eng.NoteReloadError(err)
			logger.Warn("reload failed, serving last-good model", "err", err)
			continue
		}
		last = st.ModTime()
		eng.Reload(m)
		info := m.Info()
		logger.Info("hot-reloaded model",
			"nodes", info.Nodes, "snapshot", info.SnapshotHash,
			"load_ms", info.LoadMillis, "features", len(m.Schema()), "classes", len(m.Classes()))
	}
}
