// Command vqroute is the fleet-mode router: one daemon fronting N
// vqserve replicas, splitting each /diagnose NDJSON body into
// contiguous line ranges, one per replica with room (the least loaded
// takes the first), failing a broken replica's unserved rows over to a
// healthy peer, ejecting replicas that fail health probes, holding traffic
// shifts and rollouts when a replica reports degraded, coordinating
// staged model rollouts (canary → verify hash → fan out), and
// propagating backpressure as 429 + Retry-After when the whole fleet
// is saturated.
//
// Usage:
//
//	vqroute -replicas http://127.0.0.1:8701,http://127.0.0.1:8702
//	        [-addr :8710] [-health-every 2s] [-eject-after 3]
//	        [-max-inflight 1024] [-retry-after 1s]
//	        [-log-format text|json] [-obs 2s] [-obs-cap 360]
//	        [-pprof-addr ""] [-drain 10s]
//
// Endpoints:
//
//	POST /diagnose    NDJSON batch, proxied across the fleet, answers
//	                  merged back in input order
//	GET  /healthz     router + per-replica state summary
//	GET  /metrics     Prometheus text exposition (vqroute_* series)
//	GET  /vars        obs telemetry snapshot of the router registry
//	GET  /dashboard   self-contained HTML dashboard polling /vars
//	POST /-/rollout   staged model rollout (?hash= pins the expected
//	                  snapshot hash); 200 complete, 409 held
//
// -pprof-addr serves net/http/pprof on a separate listener, so a CPU
// profile of the router can be taken under load. Topology, the range
// split, the rollout protocol and the shedding tiers are documented in
// docs/ROUTING.md.
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
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"vqprobe/internal/buildinfo"
	"vqprobe/internal/metrics"
	"vqprobe/internal/obs"
	"vqprobe/internal/route"
)

// newLogger builds the process logger: text (the default, human
// friendly) or json (one object per line, for log shippers).
func newLogger(format string) *slog.Logger {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, nil))
	default:
		fmt.Fprintf(os.Stderr, "vqroute: unknown -log-format %q (want text or json)\n", format)
		os.Exit(2)
		return nil
	}
}

func main() {
	var (
		replicas    = flag.String("replicas", "", "comma-separated vqserve base URLs (required)")
		addr        = flag.String("addr", ":8710", "HTTP listen address")
		healthEvery = flag.Duration("health-every", 2*time.Second, "replica /healthz poll interval")
		ejectAfter  = flag.Int("eject-after", 3, "consecutive probe failures before a replica is ejected")
		maxInflight = flag.Int("max-inflight", 1024, "max outstanding proxied rows per replica before shedding")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses and shed rows")
		logFmt      = flag.String("log-format", "text", "log output format: text or json")
		obsEvery    = flag.Duration("obs", 2*time.Second, "telemetry plane sampling interval; 0 disables /vars and /dashboard")
		obsCap      = flag.Int("obs-cap", 360, "telemetry ring capacity in samples per series")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests on SIGTERM")
		version     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "vqroute")
		return
	}
	logger := newLogger(*logFmt)
	slog.SetDefault(logger)

	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "vqroute: -replicas is required (comma-separated vqserve base URLs)")
		os.Exit(2)
	}

	reg := metrics.NewRegistry()
	metrics.RegisterGoRuntime(reg, "vqroute") // the CPU split between user code and GC, read at scrape time
	rt, err := route.New(route.Config{
		Replicas:    urls,
		Registry:    reg,
		Logger:      logger,
		Clock:       time.Now,
		EjectAfter:  *ejectAfter,
		MaxInflight: *maxInflight,
		RetryAfter:  *retryAfter,
	})
	if err != nil {
		logger.Error("router construction failed", "err", err)
		os.Exit(1)
	}
	logger.Info("routing",
		"replicas", len(urls), "addr", *addr,
		"eject_after", *ejectAfter, "max_inflight", *maxInflight,
		"health_every", *healthEvery)

	if *pprofAddr != "" {
		// pprof registers on http.DefaultServeMux; the router surface
		// uses its own mux, so the profile listener exposes nothing else.
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	// The health loop is the only periodic work: the route package is
	// clock-free by design, so the daemon owns the ticker.
	stop := make(chan struct{})
	go func() {
		rt.PollHealth(context.Background()) // immediate first sweep
		tick := time.NewTicker(*healthEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				rt.PollHealth(context.Background())
			}
		}
	}()

	handler := rt.Handler()
	if *obsEvery > 0 {
		// The obs plane samples the router's own registry, so the
		// vqroute_* gauges and counters show up in /vars, /dashboard
		// and vqtop exactly like a replica's series do.
		plane := obs.New(obs.Config{Registry: reg, Capacity: *obsCap, Logger: logger})
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("/vars", plane.VarsHandler())
		mux.Handle("/dashboard", plane.DashboardHandler())
		handler = mux
		go plane.RunWall(*obsEvery, stop)
		logger.Info("obs plane sampling", "interval", *obsEvery, "capacity", *obsCap)
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: accessLog(logger, handler),
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
	close(stop)
	// A second signal during the drain forces immediate exit.
	go func() {
		s := <-sig
		logger.Warn("forced exit", "signal", s.String())
		os.Exit(1)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("shutdown", "err", err)
	}
	for _, s := range rt.Statuses() {
		logger.Info("replica at exit", "url", s.URL, "state", s.State, "inflight", s.Inflight)
	}
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

// reqSeq numbers requests for log correlation.
var reqSeq atomic.Uint64

// accessLog wraps the router surface with one structured log line per
// request.
func accessLog(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration_ms", float64(time.Since(start).Microseconds())/1000,
			"req", "r"+strconv.FormatUint(reqSeq.Add(1), 10))
	})
}
