package chaos

import (
	"os"
	"runtime"
	"strconv"
	"testing"

	"vqprobe/internal/serve"
)

// seed returns the scenario seed: CHAOS_SEED from the environment (the
// reproduction knob printed by every failure) or the fixed default.
func seed() int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return DefaultSeed
}

// withLeakCheck runs fn and then asserts the goroutine count settles
// back to its pre-scenario baseline.
func withLeakCheck(t *testing.T, fn func(h *Harness)) {
	h := New(t, seed())
	baseline := runtime.NumGoroutine()
	fn(h)
	h.SettleGoroutines(baseline)
}

func TestServeMalformedIngest(t *testing.T) {
	withLeakCheck(t, func(h *Harness) {
		h.ServeMalformedIngest(BuildModel(t, "lan_cong_severe"))
	})
}

func TestServeNonFiniteFlood(t *testing.T) {
	withLeakCheck(t, func(h *Harness) {
		h.ServeNonFiniteFlood(BuildModel(t, "lan_cong_severe"))
	})
}

// The non-finite flood is fully deterministic end to end (batch order,
// classifications, error strings): same seed, same event log.
func TestServeNonFiniteFloodDeterministic(t *testing.T) {
	m := BuildModel(t, "lan_cong_severe")
	run := func() string {
		h := New(t, seed())
		h.ServeNonFiniteFlood(m)
		return h.EventLog()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different event logs:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

func TestServeQueueSaturationShed(t *testing.T) {
	withLeakCheck(t, func(h *Harness) {
		h.ServeQueueSaturation(BuildModel(t, "lan_cong_severe"), serve.Shed)
	})
}

func TestServeQueueSaturationBlock(t *testing.T) {
	withLeakCheck(t, func(h *Harness) {
		h.ServeQueueSaturation(BuildModel(t, "lan_cong_severe"), serve.Block)
	})
}

func TestServeReloadStorm(t *testing.T) {
	withLeakCheck(t, func(h *Harness) {
		h.ServeReloadStorm(BuildModel(t, "lan_cong_severe"), BuildModelOn(t, "server", "wan_cong_severe"))
	})
}

func TestServeSlowClients(t *testing.T) {
	withLeakCheck(t, func(h *Harness) {
		h.ServeSlowClients(BuildModel(t, "lan_cong_severe"))
	})
}

func TestServeWorkerPanics(t *testing.T) {
	withLeakCheck(t, func(h *Harness) {
		h.ServeWorkerPanics(BuildModel(t, "lan_cong_severe"))
	})
}

func TestServeClockSkew(t *testing.T) {
	withLeakCheck(t, func(h *Harness) {
		h.ServeClockSkew(BuildModel(t, "lan_cong_severe"))
	})
}

func TestServePredictionsStableAcrossChaos(t *testing.T) {
	withLeakCheck(t, func(h *Harness) {
		h.ServePredictionsStable(func() *serve.Model { return BuildModel(t, "lan_cong_severe") })
	})
}

// The router scenarios extend the harness to the multi-replica
// topology: replica killed mid-batch, split-brain reload, retry storm
// against a flapping replica, client disconnect through the proxy.

func TestRouteReplicaKill(t *testing.T) {
	withLeakCheck(t, func(h *Harness) {
		h.RouteReplicaKill(func() *serve.Model { return BuildModel(t, "lan_cong_severe") })
	})
}

func TestRouteSplitBrainReload(t *testing.T) {
	withLeakCheck(t, func(h *Harness) {
		h.RouteSplitBrainReload(func() *serve.Model { return BuildModel(t, "lan_cong_severe") })
	})
}

func TestRouteRetryStorm(t *testing.T) {
	withLeakCheck(t, func(h *Harness) {
		h.RouteRetryStorm(func() *serve.Model { return BuildModel(t, "lan_cong_severe") })
	})
}

func TestRouteClientDisconnect(t *testing.T) {
	withLeakCheck(t, func(h *Harness) {
		h.RouteClientDisconnect(BuildModel(t, "lan_cong_severe"))
	})
}

func TestSimFlakySessionTerminates(t *testing.T) {
	// Several independent schedules from one master seed: the harness
	// chains sub-seeds off h.Rand, so the whole sweep replays from one
	// CHAOS_SEED value.
	h := New(t, seed())
	for i := 0; i < 4; i++ {
		h.SimFlakySession()
	}
}

func TestSimMidStreamAbort(t *testing.T) {
	h := New(t, seed())
	h.SimMidStreamAbort()
}

func TestSimStarvedStartup(t *testing.T) {
	h := New(t, seed())
	h.SimStarvedStartup()
}

// TestSimDeterministic is the harness's core guarantee: the simulation
// scenarios run on the virtual clock, so two runs with the same seed
// must produce byte-identical event logs — fault schedules, player
// reports, MOS values, everything.
func TestSimDeterministic(t *testing.T) {
	run := func() string {
		h := New(t, seed())
		h.SimFlakySession()
		h.SimMidStreamAbort()
		h.SimStarvedStartup()
		return h.EventLog()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different event logs:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("scenarios recorded no events")
	}
}
