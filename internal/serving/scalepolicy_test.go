package serving

import (
	"testing"

	"heroserve/internal/telemetry/critpath"
	"heroserve/internal/telemetry/decisions"
	"heroserve/internal/telemetry/slo"
)

// calmSignals is a baseline snapshot no policy should act on: moderate load,
// no backlog, no idle instance, latencies well inside the SLA.
func calmSignals() ScaleSignals {
	return ScaleSignals{
		Now:           100,
		Backlog:       0,
		Active:        2,
		Activating:    0,
		Reserves:      1,
		MinActive:     1,
		MaxBatch:      8,
		Occupancy:     0.5,
		KVUtilization: 0.4,
		LongestIdle:   0,
		TTFT:          0.1,
		TPOT:          0.05,
		LatencyPrimed: true,
		SLA:           &SLA{TTFT: 2.5, TPOT: 0.15},
	}
}

func TestBacklogPerInstance(t *testing.T) {
	sig := calmSignals()
	sig.Backlog, sig.Active, sig.Activating = 6, 2, 1
	if got := sig.backlogPerInstance(); got != 2 {
		t.Errorf("backlogPerInstance = %g, want 2 (activating instances count as committed)", got)
	}
	sig.Active, sig.Activating = 0, 0
	if got := sig.backlogPerInstance(); got != 6 {
		t.Errorf("backlogPerInstance with empty fleet = %g, want raw backlog 6", got)
	}
}

func TestBacklogPolicyDecide(t *testing.T) {
	p := NewBacklogPolicy(0, 0)
	if p.OutBacklog != 2 || p.InIdle != 30 {
		t.Fatalf("defaults = %+v", p)
	}
	sig := calmSignals()
	if d := p.Decide(sig); d != ScaleHold {
		t.Errorf("calm: %v, want hold", d)
	}
	sig.Backlog = 10 // 5 per committed instance
	if d := p.Decide(sig); d != ScaleOut {
		t.Errorf("backlog spike: %v, want scale_out", d)
	}
	sig.Reserves = 0 // nothing left to activate
	if d := p.Decide(sig); d != ScaleHold {
		t.Errorf("backlog spike without reserves: %v, want hold", d)
	}
	sig = calmSignals()
	sig.LongestIdle = 31
	if d := p.Decide(sig); d != ScaleIn {
		t.Errorf("long idle: %v, want scale_in", d)
	}
	sig.LongestIdle = 29
	if d := p.Decide(sig); d != ScaleHold {
		t.Errorf("short idle: %v, want hold", d)
	}
}

func TestOccupancyPolicyDecide(t *testing.T) {
	p := NewOccupancyPolicy()
	sig := calmSignals()
	if d := p.Decide(sig); d != ScaleHold {
		t.Errorf("calm: %v, want hold", d)
	}
	sig.Occupancy = 0.9
	if d := p.Decide(sig); d != ScaleOut {
		t.Errorf("hot batches: %v, want scale_out", d)
	}
	sig = calmSignals()
	sig.Backlog = 2 // 1 per instance: queueing means batches are full somewhere
	if d := p.Decide(sig); d != ScaleOut {
		t.Errorf("queueing: %v, want scale_out", d)
	}
	sig = calmSignals()
	sig.Occupancy, sig.LongestIdle = 0.1, 11
	if d := p.Decide(sig); d != ScaleIn {
		t.Errorf("cold batches + idle: %v, want scale_in", d)
	}
	sig.LongestIdle = 0
	if d := p.Decide(sig); d != ScaleHold {
		t.Errorf("cold batches, nothing idle: %v, want hold", d)
	}
}

func TestKVHeadroomPolicyDecide(t *testing.T) {
	p := NewKVHeadroomPolicy()
	sig := calmSignals()
	if d := p.Decide(sig); d != ScaleHold {
		t.Errorf("calm: %v, want hold", d)
	}
	sig.KVUtilization = 0.85
	if d := p.Decide(sig); d != ScaleOut {
		t.Errorf("KV pressure: %v, want scale_out", d)
	}
	sig.Reserves = 0
	if d := p.Decide(sig); d != ScaleHold {
		t.Errorf("KV pressure without reserves: %v, want hold", d)
	}
	sig = calmSignals()
	sig.KVUtilization, sig.LongestIdle = 0.1, 11
	if d := p.Decide(sig); d != ScaleIn {
		t.Errorf("KV slack + idle: %v, want scale_in", d)
	}
}

func TestHybridSLOPolicyDecide(t *testing.T) {
	p := NewHybridSLOPolicy()
	sig := calmSignals()
	if d := p.Decide(sig); d != ScaleHold {
		t.Errorf("calm: %v, want hold", d)
	}
	// TPOT at 90% of the SLA bound: act before the breach.
	sig.TPOT = 0.9 * sig.SLA.TPOT
	if d := p.Decide(sig); d != ScaleOut {
		t.Errorf("TPOT near SLA: %v, want scale_out", d)
	}
	// Cool-down: the same pressure immediately after an action holds.
	sig.Now += 1
	if d := p.Decide(sig); d != ScaleHold {
		t.Errorf("inside cool-down: %v, want hold", d)
	}
	// After the cool-down the pressure triggers again.
	sig.Now += 10
	if d := p.Decide(sig); d != ScaleOut {
		t.Errorf("after cool-down: %v, want scale_out", d)
	}

	// Unprimed latencies are unknown, not "fast": only a backlog spike may
	// trigger scale-out before the first completion.
	p = NewHybridSLOPolicy()
	sig = calmSignals()
	sig.LatencyPrimed, sig.TTFT, sig.TPOT = false, 0, 0
	if d := p.Decide(sig); d != ScaleHold {
		t.Errorf("unprimed calm: %v, want hold", d)
	}
	sig.Backlog = 10
	if d := p.Decide(sig); d != ScaleOut {
		t.Errorf("unprimed backlog spike: %v, want scale_out", d)
	}

	// Scale-in needs everything comfortable, not just an idle instance.
	p = NewHybridSLOPolicy()
	sig = calmSignals()
	sig.TTFT, sig.TPOT = 0.1, 0.05
	sig.Occupancy, sig.KVUtilization, sig.LongestIdle = 0.2, 0.1, 11
	if d := p.Decide(sig); d != ScaleIn {
		t.Errorf("comfortable + idle: %v, want scale_in", d)
	}
	p = NewHybridSLOPolicy()
	sig.TPOT = 0.6 * sig.SLA.TPOT // latency not comfortably low
	if d := p.Decide(sig); d != ScaleHold {
		t.Errorf("idle but latency warm: %v, want hold", d)
	}
}

func TestClassifyAlerts(t *testing.T) {
	cases := []struct {
		name             string
		alerts           []AlertSignal
		out, veto, widen bool
	}{
		{name: "nil"},
		{name: "pending only vetoes", alerts: []AlertSignal{
			{Rule: "r", Kind: slo.KindBurnRate}}, veto: true},
		{name: "firing burn-rate", alerts: []AlertSignal{
			{Rule: "r", Kind: slo.KindBurnRate, Firing: true}}, out: true, veto: true},
		{name: "firing kv-saturation", alerts: []AlertSignal{
			{Rule: "r", Kind: slo.KindKVSaturation, Firing: true}}, out: true, veto: true},
		{name: "firing fault-budget", alerts: []AlertSignal{
			{Rule: "r", Kind: slo.KindFaultBudget, Firing: true}}, out: true, veto: true},
		{name: "firing queue-growth widens", alerts: []AlertSignal{
			{Rule: "r", Kind: slo.KindQueueGrowth, Firing: true}}, widen: true, veto: true},
		{name: "fault-stall cause forces out", alerts: []AlertSignal{
			{Rule: "r", Kind: slo.KindStageShift, Firing: true, Dominant: critpath.StageFaultStall}},
			out: true, veto: true},
	}
	for _, tc := range cases {
		out, veto, widen := classifyAlerts(tc.alerts)
		if out != tc.out || veto != tc.veto || widen != tc.widen {
			t.Errorf("%s: classifyAlerts = out %v veto %v widen %v, want %v %v %v",
				tc.name, out, veto, widen, tc.out, tc.veto, tc.widen)
		}
	}
}

func TestAlertAwarePolicyDecide(t *testing.T) {
	p := NewAlertAwarePolicy()
	sig := calmSignals()
	if d := p.Decide(sig); d != ScaleHold {
		t.Errorf("calm: %v, want hold", d)
	}
	// A firing burn-rate alert activates a reserve immediately.
	sig.Alerts = []AlertSignal{{Rule: "ttft-burn", Kind: slo.KindBurnRate, Firing: true}}
	if d := p.Decide(sig); d != ScaleOut {
		t.Errorf("firing alert: %v, want scale_out", d)
	}
	// The cool-down spaces consecutive alert-driven activations.
	sig.Now += 1
	if d := p.Decide(sig); d != ScaleHold {
		t.Errorf("inside cool-down: %v, want hold", d)
	}
	sig.Now += 2
	if d := p.Decide(sig); d != ScaleOut {
		t.Errorf("after cool-down: %v, want scale_out", d)
	}
	// Without reserves the alert cannot activate, and its veto blocks the
	// idle-driven scale-in.
	sig.Now += 10
	sig.Reserves, sig.LongestIdle = 0, 11
	if d := p.Decide(sig); d != ScaleHold {
		t.Errorf("firing alert without reserves: %v, want hold", d)
	}
	// A pending alert vetoes scale-in too; clearing it releases the veto.
	sig.Alerts = []AlertSignal{{Rule: "ttft-burn", Kind: slo.KindBurnRate}}
	if d := p.Decide(sig); d != ScaleHold {
		t.Errorf("pending alert vetoes scale-in: %v, want hold", d)
	}
	sig.Alerts = nil
	if d := p.Decide(sig); d != ScaleIn {
		t.Errorf("idle without alerts: %v, want scale_in", d)
	}
	// The backlog backstop keeps the law functional with no monitor armed.
	p = NewAlertAwarePolicy()
	sig = calmSignals()
	sig.Backlog = 10
	if d := p.Decide(sig); d != ScaleOut {
		t.Errorf("backstop backlog spike: %v, want scale_out", d)
	}
}

func TestAlertAwareBatchTarget(t *testing.T) {
	var adv BatchAdvisor = NewAlertAwarePolicy()
	p := adv.(*AlertAwarePolicy)
	sig := calmSignals()
	if bt := p.BatchTarget(sig); bt != sig.MaxBatch {
		t.Errorf("initial batch target = %d, want %d", bt, sig.MaxBatch)
	}
	// A firing queue-growth alert widens the target to double the cap.
	sig.Alerts = []AlertSignal{{Rule: "queue-growth", Kind: slo.KindQueueGrowth, Firing: true}}
	p.Decide(sig)
	if bt := p.BatchTarget(sig); bt != 2*sig.MaxBatch {
		t.Errorf("widened batch target = %d, want %d", bt, 2*sig.MaxBatch)
	}
	// The widening lasts only while the alert keeps firing.
	sig.Alerts = nil
	p.Decide(sig)
	if bt := p.BatchTarget(sig); bt != sig.MaxBatch {
		t.Errorf("batch target after alert cleared = %d, want %d", bt, sig.MaxBatch)
	}
}

func TestAdaptivePolicyAlertSwitch(t *testing.T) {
	var mp MetaPolicy = NewAdaptivePolicy()
	if mp.ActiveLaw() != "hybrid-slo" {
		t.Fatalf("initial law = %s, want hybrid-slo", mp.ActiveLaw())
	}
	if _, ok := mp.TakeSwitch(); ok {
		t.Fatal("fresh policy reports a switch")
	}
	// A firing kv-saturation alert names kv-headroom; the same firing alert
	// also triggers the scale-out reflex through the meta layer.
	sig := calmSignals()
	sig.Alerts = []AlertSignal{{Rule: "kv-hot", Kind: slo.KindKVSaturation, Firing: true}}
	if d := mp.Decide(sig); d != ScaleOut {
		t.Errorf("firing kv-sat: %v, want reflex scale_out", d)
	}
	if mp.ActiveLaw() != "kv-headroom" {
		t.Errorf("law after kv-sat alert = %s, want kv-headroom", mp.ActiveLaw())
	}
	sw, ok := mp.TakeSwitch()
	if !ok || sw.From != "hybrid-slo" || sw.To != "kv-headroom" || sw.Signal != "alert" {
		t.Errorf("switch = %+v ok=%v, want hybrid-slo->kv-headroom on alert", sw, ok)
	}
	if _, ok := mp.TakeSwitch(); ok {
		t.Error("TakeSwitch did not clear the switch")
	}
	// Alert-driven switches bypass the dwell: a queue-growth alert right
	// after re-targets the backlog law.
	sig.Now += 0.5
	sig.Alerts = []AlertSignal{{Rule: "q", Kind: slo.KindQueueGrowth, Firing: true}}
	mp.Decide(sig)
	if sw, ok := mp.TakeSwitch(); !ok || sw.To != "backlog" || sw.Signal != "alert" {
		t.Errorf("switch = %+v ok=%v, want ->backlog on alert inside dwell", sw, ok)
	}
}

func TestAdaptivePolicyStageShareAndDwell(t *testing.T) {
	p := NewAdaptivePolicy()
	// A queue-dominated stage-share window selects the backlog law.
	sig := calmSignals()
	sig.Now = 10
	sig.DominantStage, sig.DominantShare = critpath.StageQueue, 0.6
	p.Decide(sig)
	if sw, ok := p.TakeSwitch(); !ok || sw.To != "backlog" || sw.Signal != "stage-share" {
		t.Fatalf("switch = %+v ok=%v, want ->backlog on stage-share", sw, ok)
	}
	// Inside the dwell a non-alert signal cannot switch again.
	sig.Now = 11
	sig.DominantStage, sig.DominantShare = "", 0
	sig.LawRegret = []decisions.LawRegret{
		{Law: "backlog", ChargedMisses: 5},
		{Law: "occupancy", ChargedMisses: 0},
	}
	p.Decide(sig)
	if _, ok := p.TakeSwitch(); ok {
		t.Error("regret switch landed inside the dwell")
	}
	if p.ActiveLaw() != "backlog" {
		t.Errorf("law = %s, want backlog held through the dwell", p.ActiveLaw())
	}
	// A sub-0.5 queue share is not dominance: no switch even past the dwell.
	p2 := NewAdaptivePolicy()
	sig2 := calmSignals()
	sig2.DominantStage, sig2.DominantShare = critpath.StageQueue, 0.4
	p2.Decide(sig2)
	if _, ok := p2.TakeSwitch(); ok {
		t.Error("weak queue share caused a switch")
	}
}

func TestAdaptivePolicyRegretSwitch(t *testing.T) {
	p := NewAdaptivePolicy()
	sig := calmSignals()
	// The ledger's window says occupancy strictly beats the active law on
	// charged misses; laws outside the delegate set (the meta-policy itself
	// shadows too) are ignored.
	sig.LawRegret = []decisions.LawRegret{
		{Law: "adaptive", ChargedMisses: 0},
		{Law: "backlog", ChargedMisses: 7},
		{Law: "hybrid-slo", ChargedMisses: 5},
		{Law: "kv-headroom", ChargedMisses: 6},
		{Law: "occupancy", ChargedMisses: 1, GPUSeconds: 10},
	}
	if d := p.Decide(sig); d != ScaleHold {
		t.Errorf("calm regret step: %v, want hold", d)
	}
	if sw, ok := p.TakeSwitch(); !ok || sw.From != "hybrid-slo" || sw.To != "occupancy" || sw.Signal != "regret" {
		t.Errorf("switch = %+v ok=%v, want hybrid-slo->occupancy on regret", sw, ok)
	}
	// Equal charged misses are not a strict improvement: no flapping back.
	sig.Now += 10
	sig.LawRegret = []decisions.LawRegret{
		{Law: "hybrid-slo", ChargedMisses: 1},
		{Law: "occupancy", ChargedMisses: 1},
	}
	p.Decide(sig)
	if _, ok := p.TakeSwitch(); ok {
		t.Error("equal-regret step switched laws")
	}
}

func TestAdaptivePolicyReflexAndVeto(t *testing.T) {
	p := NewAdaptivePolicy()
	// The backlog backstop activates a reserve through the meta layer even
	// while the delegated law (hybrid-slo, fresh) would also fire — and keeps
	// working when the delegate is inside its own cool-down.
	sig := calmSignals()
	sig.Backlog = 10
	if d := p.Decide(sig); d != ScaleOut {
		t.Fatalf("backlog reflex: %v, want scale_out", d)
	}
	sig.Now += 3 // past the reflex cool-down, inside hybrid-slo's 5 s one
	if d := p.Decide(sig); d != ScaleOut {
		t.Errorf("reflex during delegate cool-down: %v, want scale_out", d)
	}
	// Any live alert vetoes a delegated scale-in.
	p = NewAdaptivePolicy()
	sig = calmSignals()
	sig.Occupancy, sig.KVUtilization, sig.LongestIdle = 0.2, 0.1, 11
	sig.TTFT, sig.TPOT = 0.1, 0.05
	if d := p.Decide(sig); d != ScaleIn {
		t.Fatalf("comfortable idle: %v, want delegated scale_in", d)
	}
	// The meta veto covers delegates that are themselves alert-blind: steer
	// onto the backlog law, then a pending alert must hold its scale-in.
	p = NewAdaptivePolicy()
	sig = calmSignals()
	sig.DominantStage, sig.DominantShare = critpath.StageQueue, 0.6
	p.Decide(sig)
	if p.ActiveLaw() != "backlog" {
		t.Fatalf("law = %s, want backlog", p.ActiveLaw())
	}
	sig = calmSignals()
	sig.Now += 10
	sig.LongestIdle = 31
	if d := p.Decide(sig); d != ScaleIn {
		t.Fatalf("idle on backlog law: %v, want scale_in", d)
	}
	sig.Now += 10
	sig.Alerts = []AlertSignal{{Rule: "ttft-burn", Kind: slo.KindBurnRate}}
	if d := p.Decide(sig); d != ScaleHold {
		t.Errorf("pending alert on alert-blind delegate: %v, want vetoed hold", d)
	}
}

func TestNewScalePolicy(t *testing.T) {
	for _, name := range ScalePolicyNames {
		p, err := NewScalePolicy(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewScalePolicy(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := NewScalePolicy("nope"); err == nil {
		t.Error("unknown policy name did not error")
	}
}

func TestScaleDecisionString(t *testing.T) {
	if ScaleHold.String() != "hold" || ScaleOut.String() != "scale_out" || ScaleIn.String() != "scale_in" {
		t.Errorf("decision strings: %q %q %q", ScaleHold, ScaleOut, ScaleIn)
	}
}
