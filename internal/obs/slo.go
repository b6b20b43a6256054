package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"vqprobe/internal/metrics"
)

// Duration is a time.Duration that unmarshals from JSON as either a
// string ("5m", "1h30m") or a nanosecond number, so SLO config files
// read naturally.
type Duration time.Duration

// UnmarshalJSON implements the dual string/number form.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return err
	}
	*d = Duration(ns)
	return nil
}

// MarshalJSON renders the human-readable string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// SLO is one declarative service-level objective, evaluated as a
// multi-window burn-rate alert (Google SRE workbook style): the alert
// fires only when BOTH the fast and the slow window burn above the
// threshold — the fast window gives detection latency, the slow window
// keeps one transient spike from paging.
//
// Exactly one of the two objective forms is used:
//
//   - ratio: Bad and Total name two counter series (full names, labels
//     included); the error rate is ΔBad/ΔTotal over each window.
//   - latency: Hist names a histogram series and ThresholdS the bound;
//     observations above the threshold are "bad". The effective
//     threshold snaps to the largest bucket bound not exceeding it.
//
// Burn rate is errRate/(1-Objective): 1.0 means the error budget is
// being consumed exactly at the sustainable pace, 14.4 means a 30-day
// budget gone in 2 days.
type SLO struct {
	Name string `json:"name"`

	Bad   string `json:"bad,omitempty"`
	Total string `json:"total,omitempty"`

	Hist       string  `json:"hist,omitempty"`
	ThresholdS float64 `json:"threshold_s,omitempty"`

	// Objective is the target success fraction, e.g. 0.999.
	Objective float64 `json:"objective"`
	// FastWindow/SlowWindow are the two burn windows; zero selects
	// 5m/1h.
	FastWindow Duration `json:"fast_window,omitempty"`
	SlowWindow Duration `json:"slow_window,omitempty"`
	// Burn is the firing threshold on both windows; zero selects 14.4.
	Burn float64 `json:"burn,omitempty"`
}

func (s SLO) withDefaults() SLO {
	if s.FastWindow <= 0 {
		s.FastWindow = Duration(5 * time.Minute)
	}
	if s.SlowWindow <= 0 {
		s.SlowWindow = Duration(time.Hour)
	}
	if s.Burn <= 0 {
		s.Burn = 14.4
	}
	return s
}

func (s SLO) validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("obs: SLO needs a name")
	case s.Hist != "" && (s.Bad != "" || s.Total != ""):
		return fmt.Errorf("obs: SLO %q: hist and bad/total are mutually exclusive", s.Name)
	case s.Hist == "" && (s.Bad == "" || s.Total == ""):
		return fmt.Errorf("obs: SLO %q: need hist+threshold_s or bad+total", s.Name)
	case s.Hist != "" && s.ThresholdS <= 0:
		return fmt.Errorf("obs: SLO %q: latency form needs threshold_s > 0", s.Name)
	case s.Objective <= 0 || s.Objective >= 1:
		return fmt.Errorf("obs: SLO %q: objective must be in (0,1)", s.Name)
	}
	return nil
}

// LoadSLOs parses a JSON array of SLOs and validates each.
func LoadSLOs(r io.Reader) ([]SLO, error) {
	var slos []SLO
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&slos); err != nil {
		return nil, fmt.Errorf("obs: parsing SLO config: %w", err)
	}
	for _, s := range slos {
		if err := s.validate(); err != nil {
			return nil, err
		}
	}
	return slos, nil
}

// DefaultServeSLOs returns the stock objectives for a vqserve daemon:
// availability, p99-style diagnose latency and shed rate, against the
// engine's standard metric names.
func DefaultServeSLOs() []SLO {
	return []SLO{
		{Name: "availability", Bad: "vqserve_errors_total", Total: "vqserve_submitted_total", Objective: 0.999},
		{Name: "latency", Hist: `vqserve_stage_latency_seconds{stage="total"}`, ThresholdS: 0.25, Objective: 0.999},
		{Name: "shed", Bad: "vqserve_shed_total", Total: "vqserve_submitted_total", Objective: 0.999},
	}
}

// Alert is one SLO's externally visible state, surfaced on /healthz
// (firing only), in /vars snapshots, and on vqtop.
type Alert struct {
	SLO   string `json:"slo"`
	State string `json:"state"` // "firing" or "ok"
	// SinceNS is when the current state was entered, on the driving
	// clock.
	SinceNS  int64   `json:"since_ns"`
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
	// Threshold echoes the SLO's firing burn rate.
	Threshold float64 `json:"threshold"`
}

// sloState is one SLO's live evaluation state plus its exported
// burn-rate gauges.
type sloState struct {
	slo          SLO
	firing       bool
	sinceNS      int64
	burnFast     float64
	burnSlow     float64
	fastG, slowG *metrics.Gauge
}

func newSLOState(s SLO, reg *metrics.Registry) *sloState {
	st := &sloState{slo: s}
	if reg != nil {
		st.fastG = reg.Gauge(fmt.Sprintf("vqserve_slo_burn_rate{slo=%q,window=%q}", s.Name, "fast"),
			"SLO error-budget burn rate per window")
		st.slowG = reg.Gauge(fmt.Sprintf("vqserve_slo_burn_rate{slo=%q,window=%q}", s.Name, "slow"),
			"SLO error-budget burn rate per window")
	}
	return st
}

// evalSLOs re-evaluates every objective against the ring store at tick
// time tns, updates the burn gauges, and logs state transitions.
// Caller holds p.mu.
func (p *Plane) evalSLOs(tns int64) {
	for _, st := range p.slos {
		st.burnFast = p.burnOver(st.slo, tns, int64(st.slo.FastWindow))
		st.burnSlow = p.burnOver(st.slo, tns, int64(st.slo.SlowWindow))
		if st.fastG != nil {
			st.fastG.Set(st.burnFast)
			st.slowG.Set(st.burnSlow)
		}
		firing := st.burnFast >= st.slo.Burn && st.burnSlow >= st.slo.Burn
		if firing != st.firing {
			st.firing = firing
			st.sinceNS = tns
			if l := p.cfg.Logger; l != nil {
				if firing {
					l.Warn("slo alert firing", "slo", st.slo.Name,
						"burn_fast", st.burnFast, "burn_slow", st.burnSlow,
						"threshold", st.slo.Burn,
						"fast_window", time.Duration(st.slo.FastWindow).String(),
						"slow_window", time.Duration(st.slo.SlowWindow).String())
				} else {
					l.Info("slo alert resolved", "slo", st.slo.Name,
						"burn_fast", st.burnFast, "burn_slow", st.burnSlow)
				}
			}
		}
	}
}

// burnOver computes one objective's burn rate over a trailing window.
func (p *Plane) burnOver(s SLO, tns, windowNS int64) float64 {
	var bad, total float64
	if s.Hist != "" {
		r := p.ring(s.Hist)
		if r == nil {
			return 0
		}
		bad, total = r.badTotalOver(tns, windowNS, s.ThresholdS)
	} else {
		rb, rt := p.ring(s.Bad), p.ring(s.Total)
		if rb == nil || rt == nil {
			return 0
		}
		bad, _ = rb.deltaOver(tns, windowNS)
		total, _ = rt.deltaOver(tns, windowNS)
	}
	if total <= 0 {
		return 0
	}
	return (bad / total) / (1 - s.Objective)
}

// Alerts returns every SLO's current state in configuration order.
func (p *Plane) Alerts() []Alert {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.alertsLocked(false)
}

// FiringAlerts returns only the currently firing alerts — the /healthz
// "alerts" field (empty slice, not nil, when all objectives are met,
// so the JSON field renders as [] rather than null).
func (p *Plane) FiringAlerts() []Alert {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.alertsLocked(true)
}

func (p *Plane) alertsLocked(firingOnly bool) []Alert {
	out := []Alert{}
	for _, st := range p.slos {
		if firingOnly && !st.firing {
			continue
		}
		state := "ok"
		if st.firing {
			state = "firing"
		}
		out = append(out, Alert{
			SLO: st.slo.Name, State: state, SinceNS: st.sinceNS,
			BurnFast: st.burnFast, BurnSlow: st.burnSlow, Threshold: st.slo.Burn,
		})
	}
	return out
}
