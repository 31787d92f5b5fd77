// Package slo is HeroServe's deterministic SLO monitor: a sim-time alert
// engine that polls the live metrics registry (including the critical-path
// stage totals the critpath collector maintains) and evaluates declarative
// rules — Google-SRE-style multi-window multi-burn-rate objectives over
// TTFT/TPOT/attainment, plus structural degradation detectors (dominant
// critical-path-stage shift, fault-stall mass over budget, queue-growth
// trend, KV-occupancy saturation).
//
// Everything is stamped with simulated time and evaluated on the event
// loop's own goroutine at a fixed sim-time cadence, so the same seed
// produces a byte-identical alert log. Alerts carry a full lifecycle
// (pending → firing → resolved) and a cause snapshot — the rule's inputs
// and the top critical-path offenders over the trigger window.
package slo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Severity ranks an alert's urgency. The zero value is info.
type Severity int

// Severities, least to most urgent.
const (
	SevInfo Severity = iota
	SevWarning
	SevCritical
)

var sevNames = [...]string{"info", "warning", "critical"}

func (s Severity) String() string {
	if s < SevInfo || s > SevCritical {
		return fmt.Sprintf("severity(%d)", int(s))
	}
	return sevNames[s]
}

// ParseSeverity inverts Severity.String.
func ParseSeverity(v string) (Severity, error) {
	for i, n := range sevNames {
		if n == v {
			return Severity(i), nil
		}
	}
	return 0, fmt.Errorf("slo: unknown severity %q", v)
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var v string
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	sev, err := ParseSeverity(v)
	if err != nil {
		return err
	}
	*s = sev
	return nil
}

// State is an alert's lifecycle state.
type State string

// Lifecycle states. A breach opens a pending alert; once it has persisted
// for the rule's For duration the alert fires; when the condition clears the
// alert resolves (a pending alert that clears before firing resolves with
// FiredAt unset — a canceled pending).
const (
	StatePending  State = "pending"
	StateFiring   State = "firing"
	StateResolved State = "resolved"
)

// CheckState vets an alert-state filter: empty (no filter) or one of the
// three lifecycle states. hstat's -state flag goes through it.
func CheckState(state string) error {
	switch State(state) {
	case "", StatePending, StateFiring, StateResolved:
		return nil
	}
	return fmt.Errorf("bad state %q: want pending, firing, or resolved", state)
}

// Kind selects a rule's evaluation law.
type Kind string

// Rule kinds.
const (
	// KindBurnRate is the multi-window multi-burn-rate law over an error
	// budget: the rule fires when BOTH the fast and the slow trailing
	// windows burn the budget faster than their thresholds.
	KindBurnRate Kind = "burn-rate"
	// KindStageShift fires when the dominant critical-path stage over the
	// trailing window differs from the run's baseline dominant stage.
	KindStageShift Kind = "stage-shift"
	// KindFaultBudget fires when fault-stall mass exceeds Threshold as a
	// fraction of all critical-path mass over the trailing window.
	KindFaultBudget Kind = "fault-budget"
	// KindQueueGrowth fires when the in-flight request count (admitted
	// minus completed) grows faster than Threshold per second over the
	// trailing window.
	KindQueueGrowth Kind = "queue-growth"
	// KindKVSaturation fires when any decode instance's KV-cache
	// utilization is at or above Threshold.
	KindKVSaturation Kind = "kv-saturation"
)

// Burn-rate objectives.
const (
	// ObjAttainment burns against the SLA-verdict counters: an error is a
	// request missing its combined TTFT+TPOT SLA.
	ObjAttainment = "attainment"
	// ObjTTFT burns against the ttft_seconds histogram: an error is a
	// request whose TTFT exceeds Bound.
	ObjTTFT = "ttft"
	// ObjTPOT burns against the tpot_seconds histogram: an error is a
	// request whose TPOT exceeds Bound.
	ObjTPOT = "tpot"
)

// BurnWindow is one (window length, burn threshold) pair of a burn-rate
// rule. Burn is measured in error budgets: with target 0.9 the budget is
// 0.1, so an error fraction of 0.6 over the window is a burn of 6.
type BurnWindow struct {
	Seconds float64 `json:"seconds"`
	Burn    float64 `json:"burn"`
}

// Rule is one declarative SLO rule. Which fields apply depends on Kind; see
// Validate for the exact requirements.
type Rule struct {
	Name     string   `json:"name"`
	Kind     Kind     `json:"kind"`
	Severity Severity `json:"severity"`

	// Burn-rate fields.
	Objective string     `json:"objective,omitempty"` // attainment | ttft | tpot
	Bound     float64    `json:"bound,omitempty"`     // latency bound (s) for ttft/tpot
	Target    float64    `json:"target,omitempty"`    // SLO target fraction in (0,1)
	Fast      BurnWindow `json:"fast,omitempty"`
	Slow      BurnWindow `json:"slow,omitempty"`

	// Structural fields.
	Over      float64 `json:"over,omitempty"`      // trailing window (s)
	Threshold float64 `json:"threshold,omitempty"` // kind-specific trigger level
	MinMass   float64 `json:"min_mass,omitempty"`  // evidence floor before the rule may fire

	// For is how long (sim-seconds) the condition must persist before a
	// pending alert fires. Zero fires on the first breached evaluation.
	For float64 `json:"for,omitempty"`
}

// Validate rejects rules the monitor could not evaluate deterministically.
func (r *Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("slo: rule with empty name")
	}
	if r.For < 0 {
		return fmt.Errorf("slo: rule %q: negative for", r.Name)
	}
	switch r.Kind {
	case KindBurnRate:
		switch r.Objective {
		case ObjAttainment:
		case ObjTTFT, ObjTPOT:
			if r.Bound <= 0 {
				return fmt.Errorf("slo: rule %q: %s objective needs bound > 0", r.Name, r.Objective)
			}
		default:
			return fmt.Errorf("slo: rule %q: unknown objective %q", r.Name, r.Objective)
		}
		if r.Target <= 0 || r.Target >= 1 {
			return fmt.Errorf("slo: rule %q: target %g outside (0,1)", r.Name, r.Target)
		}
		if r.Fast.Seconds <= 0 || r.Slow.Seconds <= 0 {
			return fmt.Errorf("slo: rule %q: burn windows need seconds > 0", r.Name)
		}
		if r.Fast.Seconds > r.Slow.Seconds {
			return fmt.Errorf("slo: rule %q: fast window longer than slow", r.Name)
		}
		if r.Fast.Burn <= 0 || r.Slow.Burn <= 0 {
			return fmt.Errorf("slo: rule %q: burn thresholds must be > 0", r.Name)
		}
	case KindStageShift, KindFaultBudget, KindQueueGrowth:
		if r.Over <= 0 {
			return fmt.Errorf("slo: rule %q: %s needs over > 0", r.Name, r.Kind)
		}
		if r.Kind != KindStageShift && r.Threshold <= 0 {
			return fmt.Errorf("slo: rule %q: %s needs threshold > 0", r.Name, r.Kind)
		}
	case KindKVSaturation:
		if r.Threshold <= 0 || r.Threshold > 1 {
			return fmt.Errorf("slo: rule %q: kv-saturation threshold %g outside (0,1]", r.Name, r.Threshold)
		}
	default:
		return fmt.Errorf("slo: rule %q: unknown kind %q", r.Name, r.Kind)
	}
	return nil
}

// causeWindow is the trailing window the cause snapshot's critical-path
// breakdown covers: the rule's own window where it has one, the slow burn
// window otherwise.
func (r *Rule) causeWindow() float64 {
	if r.Over > 0 {
		return r.Over
	}
	if r.Slow.Seconds > 0 {
		return r.Slow.Seconds
	}
	return 30
}

// DefaultRules is the built-in rule set, keyed off the run's SLA bounds
// (seconds). Windows are sized for sim-scale runs — tens of simulated
// seconds — not wall-clock SRE practice: the fast window catches a burst
// within a few seconds, the slow window confirms it is not a blip.
func DefaultRules(ttft, tpot float64) []Rule {
	rules := []Rule{
		{
			Name: "slo-attainment-fast", Kind: KindBurnRate, Severity: SevCritical,
			Objective: ObjAttainment, Target: 0.9,
			Fast: BurnWindow{Seconds: 10, Burn: 6}, Slow: BurnWindow{Seconds: 40, Burn: 3},
		},
		{
			Name: "slo-attainment-slow", Kind: KindBurnRate, Severity: SevWarning,
			Objective: ObjAttainment, Target: 0.9,
			Fast: BurnWindow{Seconds: 40, Burn: 3}, Slow: BurnWindow{Seconds: 120, Burn: 1},
		},
		{
			Name: "critpath-stage-shift", Kind: KindStageShift, Severity: SevInfo,
			Over: 30, MinMass: 2,
		},
		{
			Name: "fault-stall-budget", Kind: KindFaultBudget, Severity: SevCritical,
			Over: 20, Threshold: 0.1, MinMass: 1,
		},
		{
			Name: "queue-growth", Kind: KindQueueGrowth, Severity: SevWarning,
			Over: 15, Threshold: 1, MinMass: 16, For: 5,
		},
		{
			Name: "kv-saturation", Kind: KindKVSaturation, Severity: SevWarning,
			Threshold: 0.9, For: 5,
		},
	}
	if ttft > 0 {
		rules = append(rules, Rule{
			Name: "slo-ttft-burn", Kind: KindBurnRate, Severity: SevCritical,
			Objective: ObjTTFT, Bound: ttft, Target: 0.9,
			Fast: BurnWindow{Seconds: 10, Burn: 6}, Slow: BurnWindow{Seconds: 40, Burn: 3},
		})
	}
	if tpot > 0 {
		rules = append(rules, Rule{
			Name: "slo-tpot-burn", Kind: KindBurnRate, Severity: SevCritical,
			Objective: ObjTPOT, Bound: tpot, Target: 0.9,
			Fast: BurnWindow{Seconds: 10, Burn: 6}, Slow: BurnWindow{Seconds: 40, Burn: 3},
		})
	}
	return rules
}

// rulesDoc is the on-disk rules-file format: {"rules": [...]}.
type rulesDoc struct {
	Rules []Rule `json:"rules"`
}

// ParseRules reads a JSON rules file — either {"rules": [...]} or a bare
// array — validates every rule, and rejects duplicate names.
func ParseRules(r io.Reader) ([]Rule, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("slo: read rules: %w", err)
	}
	trimmed := bytes.TrimSpace(raw)
	var rules []Rule
	if len(trimmed) > 0 && trimmed[0] == '[' {
		err = json.Unmarshal(trimmed, &rules)
	} else {
		var doc rulesDoc
		err = json.Unmarshal(trimmed, &doc)
		rules = doc.Rules
	}
	if err != nil {
		return nil, fmt.Errorf("slo: parse rules: %w", err)
	}
	return checkRules(rules)
}

// checkRules validates a rule set and rejects duplicate names.
func checkRules(rules []Rule) ([]Rule, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("slo: empty rule set")
	}
	seen := make(map[string]bool, len(rules))
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			return nil, err
		}
		if seen[rules[i].Name] {
			return nil, fmt.Errorf("slo: duplicate rule name %q", rules[i].Name)
		}
		seen[rules[i].Name] = true
	}
	return rules, nil
}
