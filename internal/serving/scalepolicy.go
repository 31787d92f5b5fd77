package serving

import (
	"fmt"
	"strings"

	"heroserve/internal/sim"
	"heroserve/internal/telemetry/critpath"
	"heroserve/internal/telemetry/decisions"
	"heroserve/internal/telemetry/slo"
)

// ScaleSignals is the input snapshot a ScalePolicy sees at each control step.
// The autoscaler assembles it from the live system state plus short-horizon
// smoothed telemetry, so policies stay pure decision functions over numbers
// and never touch simulator internals.
type ScaleSignals struct {
	Now sim.Time

	// Backlog counts requests admitted to decode instances but not yet in a
	// running batch (KV arrived, waiting for batch/KV headroom).
	Backlog int
	// Active counts truly-active instances (serving traffic now). Activating
	// counts committed instances whose weights are still loading; they take
	// KV routing but run no iterations yet. Reserves counts deactivated
	// instances available for scale-out.
	Active     int
	Activating int
	Reserves   int
	// MinActive is the effective scale-in floor (clamped to the fleet size).
	MinActive int
	// MaxBatch is the per-instance running-batch cap (Options.MaxDecodeBatch).
	MaxBatch int

	// Occupancy is the exponentially time-averaged running-batch fill
	// fraction across truly-active instances, in [0, 1]: mean(len(running))
	// / MaxBatch smoothed over AutoscaleConfig.SignalWindow seconds.
	Occupancy float64
	// KVUtilization is the KV-cache memory utilization across truly-active
	// instances, smoothed the same way (may exceed 1 under force-admission).
	KVUtilization float64

	// LongestIdle is the longest continuous idle spell, in seconds, among
	// instances eligible for deactivation (truly active, empty, no in-flight
	// KV). Zero when no instance is idle.
	LongestIdle float64

	// TTFT and TPOT are recent-completion means (sliding window over the
	// last completed requests). LatencyPrimed reports whether any request
	// has completed yet; until then both are zero and SLO terms should be
	// treated as unknown rather than "fast".
	TTFT, TPOT    float64
	LatencyPrimed bool
	// SLA is the run's latency agreement (nil when the run has none).
	SLA *SLA
	// ActiveAlerts is the SLO monitor's firing set at decision time (sorted
	// rule names; nil when no monitor is armed or nothing fires). Recorded in
	// the decision ledger; Alerts carries the detail the laws act on.
	ActiveAlerts []string
	// Alerts is the monitor's live alert detail: one entry per firing or
	// pending rule, firing first, each group sorted by rule name. Nil when no
	// monitor is armed. Policies treat the slice as read-only.
	Alerts []AlertSignal
	// DominantStage and DominantShare describe the critical-path stage
	// carrying the largest share of recent requests' TTFT (the live
	// stage-share window). Empty/zero until requests complete or when
	// telemetry is off.
	DominantStage string
	DominantShare float64
	// LawRegret is each registered shadow law's sliding-window counterfactual
	// score from the decision ledger (misses charged to the law's replayed
	// fleet, and its estimated GPU-seconds). Nil until the ledger's shadow
	// panel is armed. Policies treat the slice as read-only.
	LawRegret []decisions.LawRegret
}

// AlertSignal is one live SLO alert as seen by the scale laws: the rule, its
// kind, whether it is already firing (false = pending inside its hold-down),
// and the dominant critical-path stage of its firing cause snapshot.
type AlertSignal struct {
	Rule     string
	Kind     slo.Kind
	Firing   bool
	Dominant string
}

// classifyAlerts reduces the live alert set to the flags the alert-consuming
// laws act on: out — a firing burn-rate, kv-saturation, or fault-budget
// alert (fault-stall mass over budget), or any firing alert whose cause
// snapshot is dominated by fault-stall mass, demands capacity now; veto —
// any firing or pending alert forbids scale-in; widen — a firing
// queue-growth alert asks for a wider effective batch target.
func classifyAlerts(alerts []AlertSignal) (out, veto, widen bool) {
	for _, a := range alerts {
		veto = true
		if !a.Firing {
			continue
		}
		switch a.Kind {
		case slo.KindBurnRate, slo.KindKVSaturation, slo.KindFaultBudget:
			out = true
		case slo.KindQueueGrowth:
			widen = true
		}
		if a.Dominant == critpath.StageFaultStall {
			out = true
		}
	}
	return out, veto, widen
}

// backlogPerInstance returns the pending-request pressure normalized by the
// committed fleet (active + activating), the quantity the original
// hard-coded control law thresholded.
func (s *ScaleSignals) backlogPerInstance() float64 {
	committed := s.Active + s.Activating
	if committed <= 0 {
		return float64(s.Backlog)
	}
	return float64(s.Backlog) / float64(committed)
}

// ScaleDecision is a policy's verdict for one control step. The autoscaler
// applies it mechanically: ScaleOut activates one reserve (if any),
// ScaleIn deactivates the longest-idle eligible instance (never below
// MinActive), ScaleHold does nothing.
type ScaleDecision int8

const (
	// ScaleHold keeps the fleet as is.
	ScaleHold ScaleDecision = iota
	// ScaleOut requests activating one reserve instance.
	ScaleOut
	// ScaleIn requests deactivating one idle instance.
	ScaleIn
)

func (d ScaleDecision) String() string {
	switch d {
	case ScaleOut:
		return "scale_out"
	case ScaleIn:
		return "scale_in"
	}
	return "hold"
}

// ScalePolicy decides, once per control interval, whether the decode fleet
// should grow, shrink, or hold. Implementations may keep state (hysteresis,
// cool-downs); build a fresh policy value per run.
type ScalePolicy interface {
	// Name identifies the policy in experiment output and telemetry.
	Name() string
	// Decide maps one signal snapshot to a fleet action.
	Decide(sig ScaleSignals) ScaleDecision
}

// BacklogPolicy is the original control law: scale out when the pending
// backlog per committed instance exceeds OutBacklog, scale in when an
// instance has been idle for InIdle seconds.
type BacklogPolicy struct {
	OutBacklog float64 // pending requests per committed instance (default 2)
	InIdle     float64 // idle seconds before scale-in (default 30)
}

// NewBacklogPolicy returns the backlog law with defaults applied for
// non-positive parameters.
func NewBacklogPolicy(outBacklog, inIdle float64) *BacklogPolicy {
	if outBacklog <= 0 {
		outBacklog = 2
	}
	if inIdle <= 0 {
		inIdle = 30
	}
	return &BacklogPolicy{OutBacklog: outBacklog, InIdle: inIdle}
}

// Name implements ScalePolicy.
func (p *BacklogPolicy) Name() string { return "backlog" }

// Decide implements ScalePolicy.
func (p *BacklogPolicy) Decide(sig ScaleSignals) ScaleDecision {
	if sig.Reserves > 0 && sig.backlogPerInstance() > p.OutBacklog {
		return ScaleOut
	}
	if sig.LongestIdle >= p.InIdle {
		return ScaleIn
	}
	return ScaleHold
}

// OccupancyPolicy targets a running-batch fill band: scale out when the
// time-averaged occupancy rises above High, scale in when it falls below Low
// and an instance has idled for InIdle seconds. It consumes the
// decode_batch_occupancy telemetry signal directly.
type OccupancyPolicy struct {
	High   float64 // occupancy fraction triggering scale-out (default 0.85)
	Low    float64 // occupancy fraction allowing scale-in (default 0.30)
	InIdle float64 // idle seconds before scale-in (default 10)
}

// NewOccupancyPolicy returns the occupancy-target law with defaults applied.
func NewOccupancyPolicy() *OccupancyPolicy {
	return &OccupancyPolicy{High: 0.85, Low: 0.30, InIdle: 10}
}

// Name implements ScalePolicy.
func (p *OccupancyPolicy) Name() string { return "occupancy" }

// Decide implements ScalePolicy.
func (p *OccupancyPolicy) Decide(sig ScaleSignals) ScaleDecision {
	if sig.Reserves > 0 && (sig.Occupancy >= p.High || sig.backlogPerInstance() >= 1) {
		return ScaleOut
	}
	if sig.Occupancy <= p.Low && sig.LongestIdle >= p.InIdle {
		return ScaleIn
	}
	return ScaleHold
}

// KVHeadroomPolicy scales on KV-cache memory pressure: out when utilization
// crosses HighWater (admission stalls and force-admissions loom), in when it
// sinks below LowWater with an idle instance. It consumes the
// decode_kv_utilization telemetry signal directly.
type KVHeadroomPolicy struct {
	HighWater float64 // KV utilization triggering scale-out (default 0.80)
	LowWater  float64 // KV utilization allowing scale-in (default 0.25)
	InIdle    float64 // idle seconds before scale-in (default 10)
}

// NewKVHeadroomPolicy returns the KV-headroom law with defaults applied.
func NewKVHeadroomPolicy() *KVHeadroomPolicy {
	return &KVHeadroomPolicy{HighWater: 0.80, LowWater: 0.25, InIdle: 10}
}

// Name implements ScalePolicy.
func (p *KVHeadroomPolicy) Name() string { return "kv-headroom" }

// Decide implements ScalePolicy.
func (p *KVHeadroomPolicy) Decide(sig ScaleSignals) ScaleDecision {
	if sig.Reserves > 0 && sig.KVUtilization >= p.HighWater {
		return ScaleOut
	}
	if sig.KVUtilization <= p.LowWater && sig.LongestIdle >= p.InIdle {
		return ScaleIn
	}
	return ScaleHold
}

// HybridSLOPolicy combines the latency SLO with load signals, under
// hysteresis: scale out when recent TTFT/TPOT approach their SLA bounds or
// the backlog spikes; scale in only when latency, occupancy, and KV pressure
// are all comfortably low and an instance has idled for InIdle seconds. A
// cool-down after every action prevents flapping while a previous decision's
// effect (a weight load, a drained batch) is still materializing.
type HybridSLOPolicy struct {
	// Margin is the fraction of the SLA bound at which scale-out triggers
	// (default 0.8: act before the SLO is breached, not after).
	Margin float64
	// OutBacklog is the backlog-per-instance spike trigger (default 2),
	// covering runs with no SLA and cold starts before latencies prime.
	OutBacklog float64
	// InIdle is the idle spell required for scale-in (default 10 s).
	InIdle float64
	// Cooldown holds decisions for this long after any action (default 5 s).
	Cooldown float64

	acted      bool
	lastAction sim.Time
}

// NewHybridSLOPolicy returns the hybrid SLO-aware law with defaults applied.
func NewHybridSLOPolicy() *HybridSLOPolicy {
	return &HybridSLOPolicy{Margin: 0.8, OutBacklog: 2, InIdle: 10, Cooldown: 5}
}

// Name implements ScalePolicy.
func (p *HybridSLOPolicy) Name() string { return "hybrid-slo" }

// Decide implements ScalePolicy. Beyond the latency/load terms, the law
// consumes the SLO monitor's live alerts: a firing burn-rate or
// kv-saturation alert (or firing fault-stall mass) forces scale-out through
// the same cool-down, and any firing or pending alert vetoes scale-in.
func (p *HybridSLOPolicy) Decide(sig ScaleSignals) ScaleDecision {
	alertOut, alertVeto, _ := classifyAlerts(sig.Alerts)
	if p.acted && sig.Now-p.lastAction < p.Cooldown {
		return ScaleHold
	}
	slowTTFT := sig.SLA != nil && sig.LatencyPrimed && sig.TTFT >= p.Margin*sig.SLA.TTFT
	slowTPOT := sig.SLA != nil && sig.LatencyPrimed && sig.TPOT >= p.Margin*sig.SLA.TPOT
	if sig.Reserves > 0 && (alertOut || slowTTFT || slowTPOT || sig.backlogPerInstance() > p.OutBacklog) {
		p.acted, p.lastAction = true, sig.Now
		return ScaleOut
	}
	comfortable := sig.SLA == nil || !sig.LatencyPrimed ||
		(sig.TTFT <= 0.5*sig.SLA.TTFT && sig.TPOT <= 0.5*sig.SLA.TPOT)
	if !alertVeto && comfortable && sig.Occupancy < 0.5 && sig.KVUtilization < 0.5 && sig.LongestIdle >= p.InIdle {
		p.acted, p.lastAction = true, sig.Now
		return ScaleIn
	}
	return ScaleHold
}

// BatchAdvisor is implemented by policies that also steer the effective
// decode batch target. The autoscaler applies the advice after every primary
// decision, clamped to [MaxDecodeBatch, 2*MaxDecodeBatch]; shadow laws'
// advice is never applied.
type BatchAdvisor interface {
	// BatchTarget returns the desired per-instance running-batch cap given
	// the latest signals (normally sig.MaxBatch; more to widen).
	BatchTarget(sig ScaleSignals) int
}

// AlertAwarePolicy is the observe→act law: it consumes the SLO monitor's
// live alerts (ScaleSignals.Alerts) directly. A firing burn-rate or
// kv-saturation alert — or firing fault-stall mass in any alert's cause
// snapshot — activates a reserve immediately; any firing or pending alert
// vetoes scale-in; a firing queue-growth alert widens the effective batch
// target instead of (only) adding instances. A backlog backstop keeps the
// law functional in runs with no monitor armed.
type AlertAwarePolicy struct {
	// OutBacklog is the backlog-per-instance backstop trigger (default 2)
	// for cold starts and monitor-less runs.
	OutBacklog float64
	// InIdle is the idle spell required for scale-in (default 10 s).
	InIdle float64
	// Cooldown separates consecutive scale-outs (default 2 s) so one
	// long-firing alert does not dump the whole reserve pool in one burst.
	Cooldown float64

	acted   bool
	lastOut sim.Time
	widen   bool
}

// NewAlertAwarePolicy returns the alert-aware law with defaults applied.
func NewAlertAwarePolicy() *AlertAwarePolicy {
	return &AlertAwarePolicy{OutBacklog: 2, InIdle: 10, Cooldown: 2}
}

// Name implements ScalePolicy.
func (p *AlertAwarePolicy) Name() string { return "alert-aware" }

// Decide implements ScalePolicy.
func (p *AlertAwarePolicy) Decide(sig ScaleSignals) ScaleDecision {
	out, veto, widen := classifyAlerts(sig.Alerts)
	p.widen = widen
	if sig.Reserves > 0 && (out || sig.backlogPerInstance() > p.OutBacklog) {
		if !p.acted || sig.Now-p.lastOut >= p.Cooldown {
			p.acted, p.lastOut = true, sig.Now
			return ScaleOut
		}
		return ScaleHold
	}
	if !veto && sig.LongestIdle >= p.InIdle {
		return ScaleIn
	}
	return ScaleHold
}

// BatchTarget implements BatchAdvisor: while the latest Decide saw a firing
// queue-growth alert the law asks for double the configured batch cap —
// queue domination with admission headroom means batching, not capacity, is
// the cheap fix.
func (p *AlertAwarePolicy) BatchTarget(sig ScaleSignals) int {
	if p.widen {
		return 2 * sig.MaxBatch
	}
	return sig.MaxBatch
}

// PolicySwitch records one runtime sub-law switch of a meta-policy, and the
// signal that drove it.
type PolicySwitch struct {
	From, To string
	Signal   string // "alert" | "stage-share" | "regret"
}

// MetaPolicy is implemented by policies that delegate to sub-laws at
// runtime. The autoscaler stamps the active law and any switch (with its
// driving signal) into the decision ledger after every primary decision.
type MetaPolicy interface {
	ScalePolicy
	// ActiveLaw names the sub-law currently driving decisions.
	ActiveLaw() string
	// TakeSwitch returns the switch performed by the latest Decide, if any,
	// and clears it.
	TakeSwitch() (PolicySwitch, bool)
}

// AdaptivePolicy switches among the four static laws at runtime, driven by
// the signals the telemetry stack already produces, in priority order:
// a firing alert names the law whose signal is burning (kv-saturation →
// kv-headroom, queue-growth → backlog, burn-rate → hybrid-slo); a
// queue-dominated stage-share window selects the backlog law; otherwise the
// ledger's sliding-window shadow regret picks the law with the fewest
// charged counterfactual misses. On top of the delegated verdict it keeps
// the alert reflexes: firing scale-out pressure activates a reserve
// immediately and any live alert vetoes scale-in.
type AdaptivePolicy struct {
	// MinDwell is the minimum time between switches (default 3 s);
	// alert-driven switches bypass it.
	MinDwell float64
	// Cooldown separates consecutive alert-reflex scale-outs (default 2 s).
	Cooldown float64
	// OutBacklog is the reflex backlog-per-instance backstop (default 2):
	// like the alert reflex it activates a reserve through the meta layer,
	// without waiting for the delegated law's own (possibly cooling-down)
	// scale-out term.
	OutBacklog float64

	laws       []ScalePolicy
	active     int
	lastSwitch sim.Time
	switched   bool
	pending    PolicySwitch
	acted      bool
	lastOut    sim.Time
}

// NewAdaptivePolicy returns the adaptive meta-policy over fresh instances of
// the four static laws, starting on hybrid-slo.
func NewAdaptivePolicy() *AdaptivePolicy {
	p := &AdaptivePolicy{
		MinDwell:   3,
		Cooldown:   2,
		OutBacklog: 2,
		laws: []ScalePolicy{
			NewBacklogPolicy(0, 0),
			NewOccupancyPolicy(),
			NewKVHeadroomPolicy(),
			NewHybridSLOPolicy(),
		},
	}
	p.active = p.index("hybrid-slo")
	return p
}

// Name implements ScalePolicy.
func (p *AdaptivePolicy) Name() string { return "adaptive" }

// ActiveLaw implements MetaPolicy.
func (p *AdaptivePolicy) ActiveLaw() string { return p.laws[p.active].Name() }

// TakeSwitch implements MetaPolicy.
func (p *AdaptivePolicy) TakeSwitch() (PolicySwitch, bool) {
	if !p.switched {
		return PolicySwitch{}, false
	}
	p.switched = false
	return p.pending, true
}

func (p *AdaptivePolicy) index(name string) int {
	for i, l := range p.laws {
		if l.Name() == name {
			return i
		}
	}
	return 0
}

// desired returns the sub-law the current signals call for and the signal
// class naming why; (-1, "") when nothing asks for a change.
func (p *AdaptivePolicy) desired(sig ScaleSignals) (int, string) {
	var kvSat, qGrow, burn bool
	for _, a := range sig.Alerts {
		if !a.Firing {
			continue
		}
		switch a.Kind {
		case slo.KindKVSaturation:
			kvSat = true
		case slo.KindQueueGrowth:
			qGrow = true
		case slo.KindBurnRate:
			burn = true
		}
	}
	switch {
	case kvSat:
		return p.index("kv-headroom"), "alert"
	case qGrow:
		return p.index("backlog"), "alert"
	case burn:
		return p.index("hybrid-slo"), "alert"
	}
	if sig.DominantStage == critpath.StageQueue && sig.DominantShare >= 0.5 {
		return p.index("backlog"), "stage-share"
	}
	// Regret: switch only on a strict charged-miss improvement over the
	// active law's window score, so GPU-second noise cannot cause flapping.
	if len(sig.LawRegret) > 0 {
		bestIdx, best := -1, decisions.LawRegret{}
		var activeReg *decisions.LawRegret
		for i := range sig.LawRegret {
			r := &sig.LawRegret[i]
			if r.Law == p.ActiveLaw() {
				activeReg = r
			}
			idx := -1
			for j, l := range p.laws {
				if l.Name() == r.Law {
					idx = j
					break
				}
			}
			if idx < 0 {
				continue
			}
			if bestIdx < 0 || r.ChargedMisses < best.ChargedMisses ||
				(r.ChargedMisses == best.ChargedMisses && r.GPUSeconds < best.GPUSeconds) {
				bestIdx, best = idx, *r
			}
		}
		if bestIdx >= 0 && bestIdx != p.active && activeReg != nil &&
			best.ChargedMisses < activeReg.ChargedMisses {
			return bestIdx, "regret"
		}
	}
	return -1, ""
}

// Decide implements ScalePolicy.
func (p *AdaptivePolicy) Decide(sig ScaleSignals) ScaleDecision {
	if want, signal := p.desired(sig); want >= 0 && want != p.active {
		if signal == "alert" || sig.Now-p.lastSwitch >= p.MinDwell {
			p.pending = PolicySwitch{From: p.ActiveLaw(), To: p.laws[want].Name(), Signal: signal}
			p.switched = true
			p.active, p.lastSwitch = want, sig.Now
		}
	}
	out, veto, _ := classifyAlerts(sig.Alerts)
	if (out || sig.backlogPerInstance() > p.OutBacklog) && sig.Reserves > 0 {
		if !p.acted || sig.Now-p.lastOut >= p.Cooldown {
			p.acted, p.lastOut = true, sig.Now
			return ScaleOut
		}
		return ScaleHold
	}
	d := p.laws[p.active].Decide(sig)
	if d == ScaleIn && veto {
		return ScaleHold
	}
	return d
}

// ScalePolicyNames lists the built-in policy names in reporting order.
var ScalePolicyNames = []string{"backlog", "occupancy", "kv-headroom", "hybrid-slo", "alert-aware", "adaptive"}

// NewScalePolicy builds a fresh built-in policy with default parameters by
// name (see ScalePolicyNames). Policies are stateful; never share one value
// across runs.
func NewScalePolicy(name string) (ScalePolicy, error) {
	switch name {
	case "backlog":
		return NewBacklogPolicy(0, 0), nil
	case "occupancy":
		return NewOccupancyPolicy(), nil
	case "kv-headroom":
		return NewKVHeadroomPolicy(), nil
	case "hybrid-slo":
		return NewHybridSLOPolicy(), nil
	case "alert-aware":
		return NewAlertAwarePolicy(), nil
	case "adaptive":
		return NewAdaptivePolicy(), nil
	}
	return nil, fmt.Errorf("serving: unknown scale policy %q (available: %s)",
		name, strings.Join(ScalePolicyNames, " "))
}
