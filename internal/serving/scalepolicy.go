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
	// MinActive is the scale-in floor: one truly-active instance.
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

// alertFlags is the live alert set reduced to what the alert-consuming laws
// act on.
type alertFlags struct {
	// out: a firing burn-rate, kv-saturation, or fault-budget alert
	// (fault-stall mass over budget), or any firing alert whose cause
	// snapshot is dominated by fault-stall mass, demands capacity now.
	out bool
	// veto: any firing or pending alert forbids scale-in.
	veto bool
	// burn, kvSat and queueGrowth: a firing alert of that kind.
	burn, kvSat, queueGrowth bool
}

// classifyAlerts reduces the live alert set to its alertFlags.
func classifyAlerts(alerts []AlertSignal) alertFlags {
	var f alertFlags
	for _, a := range alerts {
		f.veto = true
		if !a.Firing {
			continue
		}
		switch a.Kind {
		case slo.KindBurnRate:
			f.burn, f.out = true, true
		case slo.KindKVSaturation:
			f.kvSat, f.out = true, true
		case slo.KindFaultBudget:
			f.out = true
		case slo.KindQueueGrowth:
			f.queueGrowth = true
		}
		if a.Dominant == critpath.StageFaultStall {
			f.out = true
		}
	}
	return f
}

// Thresholds of the built-in laws. Every law that idles before scale-in
// waits lawInIdle seconds (the backlog law defaults to 30), and every
// backlog-per-instance backstop, the backlog law's default included,
// triggers above lawOutBacklog.
const (
	lawInIdle     = 10
	lawOutBacklog = 2

	occupancyHigh = 0.85 // running-batch fill triggering scale-out
	occupancyLow  = 0.30 // running-batch fill allowing scale-in
	kvHighWater   = 0.80 // KV utilization triggering scale-out
	kvLowWater    = 0.25 // KV utilization allowing scale-in

	// hybridMargin is the fraction of an SLA bound at which hybrid-slo
	// scales out: act before the SLO is breached, not after.
	hybridMargin = 0.8
	// hybridCooldown holds hybrid-slo after any action, while its effect (a
	// weight load, a drained batch) is still materializing.
	hybridCooldown = 5
	// reflexCooldown separates the alert-driven scale-outs of alert-aware
	// and adaptive, so one long-firing alert does not dump the whole reserve
	// pool in one burst.
	reflexCooldown = 2
	// adaptiveMinDwell is the minimum time between adaptive's non-alert law
	// switches.
	adaptiveMinDwell = 3
)

// cooldown gates an action for a while after it was last taken. A fresh
// cooldown is ready.
type cooldown struct {
	marked bool
	at     sim.Time
}

// ready reports whether d seconds have passed since the last mark.
func (c *cooldown) ready(now sim.Time, d float64) bool { return !c.marked || now-c.at >= d }

// mark records an action at now.
func (c *cooldown) mark(now sim.Time) { c.marked, c.at = true, now }

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
	OutBacklog float64 // pending requests per committed instance (default lawOutBacklog)
	InIdle     float64 // idle seconds before scale-in (default 30)
}

// NewBacklogPolicy returns the backlog law with defaults applied for
// non-positive parameters.
func NewBacklogPolicy(outBacklog, inIdle float64) *BacklogPolicy {
	if outBacklog <= 0 {
		outBacklog = lawOutBacklog
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
// time-averaged occupancy rises to occupancyHigh, scale in when it falls to
// occupancyLow and an instance has idled for lawInIdle seconds. It consumes
// the decode_batch_occupancy telemetry signal directly.
type OccupancyPolicy struct{}

// NewOccupancyPolicy returns the occupancy-target law.
func NewOccupancyPolicy() *OccupancyPolicy { return &OccupancyPolicy{} }

// Name implements ScalePolicy.
func (p *OccupancyPolicy) Name() string { return "occupancy" }

// Decide implements ScalePolicy.
func (p *OccupancyPolicy) Decide(sig ScaleSignals) ScaleDecision {
	if sig.Reserves > 0 && (sig.Occupancy >= occupancyHigh || sig.backlogPerInstance() >= 1) {
		return ScaleOut
	}
	if sig.Occupancy <= occupancyLow && sig.LongestIdle >= lawInIdle {
		return ScaleIn
	}
	return ScaleHold
}

// KVHeadroomPolicy scales on KV-cache memory pressure: out when utilization
// reaches kvHighWater (admission stalls and force-admissions loom), in when
// it sinks to kvLowWater with an instance idle for lawInIdle seconds. It
// consumes the decode_kv_utilization telemetry signal directly.
type KVHeadroomPolicy struct{}

// NewKVHeadroomPolicy returns the KV-headroom law.
func NewKVHeadroomPolicy() *KVHeadroomPolicy { return &KVHeadroomPolicy{} }

// Name implements ScalePolicy.
func (p *KVHeadroomPolicy) Name() string { return "kv-headroom" }

// Decide implements ScalePolicy.
func (p *KVHeadroomPolicy) Decide(sig ScaleSignals) ScaleDecision {
	if sig.Reserves > 0 && sig.KVUtilization >= kvHighWater {
		return ScaleOut
	}
	if sig.KVUtilization <= kvLowWater && sig.LongestIdle >= lawInIdle {
		return ScaleIn
	}
	return ScaleHold
}

// HybridSLOPolicy combines the latency SLO with load signals, under
// hysteresis: scale out when recent TTFT/TPOT reach hybridMargin of their
// SLA bounds or the backlog spikes past lawOutBacklog (covering runs with no
// SLA and cold starts before latencies prime); scale in only when latency,
// occupancy, and KV pressure are all comfortably low and an instance has
// idled for lawInIdle seconds. Every action starts a hybridCooldown hold
// that prevents flapping.
type HybridSLOPolicy struct {
	cool cooldown
}

// NewHybridSLOPolicy returns the hybrid SLO-aware law.
func NewHybridSLOPolicy() *HybridSLOPolicy { return &HybridSLOPolicy{} }

// Name implements ScalePolicy.
func (p *HybridSLOPolicy) Name() string { return "hybrid-slo" }

// Decide implements ScalePolicy. Beyond the latency/load terms, the law
// consumes the SLO monitor's live alerts: a firing burn-rate or
// kv-saturation alert (or firing fault-stall mass) forces scale-out through
// the same cool-down, and any firing or pending alert vetoes scale-in.
func (p *HybridSLOPolicy) Decide(sig ScaleSignals) ScaleDecision {
	al := classifyAlerts(sig.Alerts)
	if !p.cool.ready(sig.Now, hybridCooldown) {
		return ScaleHold
	}
	slowTTFT := sig.SLA != nil && sig.LatencyPrimed && sig.TTFT >= hybridMargin*sig.SLA.TTFT
	slowTPOT := sig.SLA != nil && sig.LatencyPrimed && sig.TPOT >= hybridMargin*sig.SLA.TPOT
	if sig.Reserves > 0 && (al.out || slowTTFT || slowTPOT || sig.backlogPerInstance() > lawOutBacklog) {
		p.cool.mark(sig.Now)
		return ScaleOut
	}
	comfortable := sig.SLA == nil || !sig.LatencyPrimed ||
		(sig.TTFT <= 0.5*sig.SLA.TTFT && sig.TPOT <= 0.5*sig.SLA.TPOT)
	if !al.veto && comfortable && sig.Occupancy < 0.5 && sig.KVUtilization < 0.5 && sig.LongestIdle >= lawInIdle {
		p.cool.mark(sig.Now)
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
// law functional in cold starts and runs with no monitor armed. Scale-outs
// are reflexCooldown apart; scale-in needs a lawInIdle idle spell.
type AlertAwarePolicy struct {
	cool  cooldown
	widen bool
}

// NewAlertAwarePolicy returns the alert-aware law.
func NewAlertAwarePolicy() *AlertAwarePolicy { return &AlertAwarePolicy{} }

// Name implements ScalePolicy.
func (p *AlertAwarePolicy) Name() string { return "alert-aware" }

// Decide implements ScalePolicy.
func (p *AlertAwarePolicy) Decide(sig ScaleSignals) ScaleDecision {
	al := classifyAlerts(sig.Alerts)
	p.widen = al.queueGrowth
	if sig.Reserves > 0 && (al.out || sig.backlogPerInstance() > lawOutBacklog) {
		if p.cool.ready(sig.Now, reflexCooldown) {
			p.cool.mark(sig.Now)
			return ScaleOut
		}
		return ScaleHold
	}
	if !al.veto && sig.LongestIdle >= lawInIdle {
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
// the alert reflexes: firing scale-out pressure, or a backlog past
// lawOutBacklog, activates a reserve through the meta layer (reflexCooldown
// apart) without waiting for the delegated law's own, possibly cooling-down,
// scale-out term; and any live alert vetoes scale-in. Switches not driven by
// an alert are adaptiveMinDwell apart, counted from t=0.
type AdaptivePolicy struct {
	laws     []ScalePolicy
	active   int
	dwell    cooldown // marked at t=0 and at every switch
	switched bool
	pending  PolicySwitch
	reflex   cooldown
}

// NewAdaptivePolicy returns the adaptive meta-policy over fresh instances of
// the four static laws, starting on hybrid-slo.
func NewAdaptivePolicy() *AdaptivePolicy {
	p := &AdaptivePolicy{
		laws: []ScalePolicy{
			NewBacklogPolicy(0, 0),
			NewOccupancyPolicy(),
			NewKVHeadroomPolicy(),
			NewHybridSLOPolicy(),
		},
	}
	p.active = p.index("hybrid-slo")
	p.dwell.mark(0)
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

// index returns the position of the sub-law named name, or -1.
func (p *AdaptivePolicy) index(name string) int {
	for i, l := range p.laws {
		if l.Name() == name {
			return i
		}
	}
	return -1
}

// desired returns the sub-law the current signals call for and the signal
// class naming why; (-1, "") when nothing asks for a change.
func (p *AdaptivePolicy) desired(sig ScaleSignals, al alertFlags) (int, string) {
	switch {
	case al.kvSat:
		return p.index("kv-headroom"), "alert"
	case al.queueGrowth:
		return p.index("backlog"), "alert"
	case al.burn:
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
			idx := p.index(r.Law)
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
	al := classifyAlerts(sig.Alerts)
	if want, signal := p.desired(sig, al); want >= 0 && want != p.active {
		if signal == "alert" || p.dwell.ready(sig.Now, adaptiveMinDwell) {
			p.pending = PolicySwitch{From: p.ActiveLaw(), To: p.laws[want].Name(), Signal: signal}
			p.switched = true
			p.active = want
			p.dwell.mark(sig.Now)
		}
	}
	if (al.out || sig.backlogPerInstance() > lawOutBacklog) && sig.Reserves > 0 {
		if p.reflex.ready(sig.Now, reflexCooldown) {
			p.reflex.mark(sig.Now)
			return ScaleOut
		}
		return ScaleHold
	}
	d := p.laws[p.active].Decide(sig)
	if d == ScaleIn && al.veto {
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
