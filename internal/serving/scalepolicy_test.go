package serving

import (
	"math"
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
		name   string
		alerts []AlertSignal
		want   alertFlags
	}{
		{name: "nil"},
		{name: "pending only vetoes", alerts: []AlertSignal{
			{Rule: "r", Kind: slo.KindBurnRate}}, want: alertFlags{veto: true}},
		{name: "firing burn-rate", alerts: []AlertSignal{
			{Rule: "r", Kind: slo.KindBurnRate, Firing: true}},
			want: alertFlags{out: true, veto: true, burn: true}},
		{name: "firing kv-saturation", alerts: []AlertSignal{
			{Rule: "r", Kind: slo.KindKVSaturation, Firing: true}},
			want: alertFlags{out: true, veto: true, kvSat: true}},
		{name: "firing fault-budget", alerts: []AlertSignal{
			{Rule: "r", Kind: slo.KindFaultBudget, Firing: true}}, want: alertFlags{out: true, veto: true}},
		{name: "firing queue-growth", alerts: []AlertSignal{
			{Rule: "r", Kind: slo.KindQueueGrowth, Firing: true}},
			want: alertFlags{veto: true, queueGrowth: true}},
		{name: "fault-stall cause forces out", alerts: []AlertSignal{
			{Rule: "r", Kind: slo.KindStageShift, Firing: true, Dominant: critpath.StageFaultStall}},
			want: alertFlags{out: true, veto: true}},
		{name: "pending kinds set no kind flag", alerts: []AlertSignal{
			{Rule: "a", Kind: slo.KindKVSaturation, Firing: true},
			{Rule: "b", Kind: slo.KindQueueGrowth}, {Rule: "c", Kind: slo.KindBurnRate}},
			want: alertFlags{out: true, veto: true, kvSat: true}},
	}
	for _, tc := range cases {
		if got := classifyAlerts(tc.alerts); got != tc.want {
			t.Errorf("%s: classifyAlerts = %+v, want %+v", tc.name, got, tc.want)
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

// TestScaleLawThresholds puts every tuning value of the six laws at its exact
// trigger point and one step past it: one math.Nextafter step for the float
// signals and the clock, one pending request over 1000 instances for the
// backlog ratios. A mistyped threshold, cool-down or dwell fails a row.
func TestScaleLawThresholds(t *testing.T) {
	type step struct {
		sig  ScaleSignals
		want ScaleDecision
		law  string // the meta-policy's active sub-law after the step; "" = unchecked
	}
	down := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	sig := func(mod func(s *ScaleSignals)) ScaleSignals {
		s := calmSignals()
		mod(&s)
		return s
	}
	// backlog(n) is n pending requests over 1000 committed instances: 2000 is
	// exactly 2 per instance, 2001 one request past it.
	backlog := func(n int, now float64) ScaleSignals {
		return sig(func(s *ScaleSignals) { s.Active, s.Backlog, s.Now = 1000, n, now })
	}
	idle := func(d float64) ScaleSignals {
		return sig(func(s *ScaleSignals) { s.Occupancy, s.KVUtilization, s.LongestIdle = 0.1, 0.1, d })
	}
	occ := func(o, d float64) ScaleSignals {
		return sig(func(s *ScaleSignals) { s.Occupancy, s.LongestIdle = o, d })
	}
	kv := func(u, d float64) ScaleSignals {
		return sig(func(s *ScaleSignals) { s.KVUtilization, s.LongestIdle = u, d })
	}
	firing := func(now float64) ScaleSignals {
		return sig(func(s *ScaleSignals) {
			s.Now = now
			s.Alerts = []AlertSignal{{Rule: "burn", Kind: slo.KindBurnRate, Firing: true}}
		})
	}
	stageShare := func(now float64) ScaleSignals {
		return sig(func(s *ScaleSignals) {
			s.Now, s.DominantStage, s.DominantShare = now, critpath.StageQueue, 0.6
		})
	}
	regret := func(now float64, best string) ScaleSignals {
		return sig(func(s *ScaleSignals) {
			s.Now = now
			s.LawRegret = []decisions.LawRegret{{Law: "backlog", ChargedMisses: 5},
				{Law: "hybrid-slo", ChargedMisses: 5}, {Law: best, ChargedMisses: 0}}
		})
	}
	sla := calmSignals().SLA
	backlogLaw := func() ScalePolicy { return NewBacklogPolicy(0, 0) }
	tunedBacklog := func() ScalePolicy { return NewBacklogPolicy(1, 10) }
	occupancy := func() ScalePolicy { return NewOccupancyPolicy() }
	kvHeadroom := func() ScalePolicy { return NewKVHeadroomPolicy() }
	hybrid := func() ScalePolicy { return NewHybridSLOPolicy() }
	alertAware := func() ScalePolicy { return NewAlertAwarePolicy() }
	adaptive := func() ScalePolicy { return NewAdaptivePolicy() }
	cases := []struct {
		name  string
		mk    func() ScalePolicy
		steps []step
	}{
		{"backlog/out-backlog at 2", backlogLaw, []step{{sig: backlog(2000, 100), want: ScaleHold}}},
		{"backlog/out-backlog past 2", backlogLaw, []step{{sig: backlog(2001, 100), want: ScaleOut}}},
		{"backlog/in-idle at 30", backlogLaw, []step{{sig: idle(30), want: ScaleIn}}},
		{"backlog/in-idle below 30", backlogLaw, []step{{sig: idle(down(30)), want: ScaleHold}}},
		{"backlog(1,10)/out-backlog at 1", tunedBacklog, []step{{sig: backlog(1000, 100), want: ScaleHold}}},
		{"backlog(1,10)/out-backlog past 1", tunedBacklog, []step{{sig: backlog(1001, 100), want: ScaleOut}}},
		{"backlog(1,10)/in-idle at 10", tunedBacklog, []step{{sig: idle(10), want: ScaleIn}}},
		{"backlog(1,10)/in-idle below 10", tunedBacklog, []step{{sig: idle(down(10)), want: ScaleHold}}},

		{"occupancy/high at 0.85", occupancy, []step{{sig: occ(0.85, 0), want: ScaleOut}}},
		{"occupancy/high below 0.85", occupancy, []step{{sig: occ(down(0.85), 0), want: ScaleHold}}},
		{"occupancy/low at 0.30", occupancy, []step{{sig: occ(0.30, 10), want: ScaleIn}}},
		{"occupancy/low above 0.30", occupancy, []step{{sig: occ(up(0.30), 10), want: ScaleHold}}},
		{"occupancy/in-idle at 10", occupancy, []step{{sig: occ(0.1, 10), want: ScaleIn}}},
		{"occupancy/in-idle below 10", occupancy, []step{{sig: occ(0.1, down(10)), want: ScaleHold}}},

		{"kv-headroom/high at 0.80", kvHeadroom, []step{{sig: kv(0.80, 0), want: ScaleOut}}},
		{"kv-headroom/high below 0.80", kvHeadroom, []step{{sig: kv(down(0.80), 0), want: ScaleHold}}},
		{"kv-headroom/low at 0.25", kvHeadroom, []step{{sig: kv(0.25, 10), want: ScaleIn}}},
		{"kv-headroom/low above 0.25", kvHeadroom, []step{{sig: kv(up(0.25), 10), want: ScaleHold}}},
		{"kv-headroom/in-idle at 10", kvHeadroom, []step{{sig: kv(0.1, 10), want: ScaleIn}}},
		{"kv-headroom/in-idle below 10", kvHeadroom, []step{{sig: kv(0.1, down(10)), want: ScaleHold}}},

		{"hybrid-slo/margin TTFT at 0.8", hybrid, []step{
			{sig: sig(func(s *ScaleSignals) { s.TTFT = 0.8 * sla.TTFT }), want: ScaleOut}}},
		{"hybrid-slo/margin TTFT below 0.8", hybrid, []step{
			{sig: sig(func(s *ScaleSignals) { s.TTFT = down(0.8 * sla.TTFT) }), want: ScaleHold}}},
		{"hybrid-slo/margin TPOT at 0.8", hybrid, []step{
			{sig: sig(func(s *ScaleSignals) { s.TPOT = 0.8 * sla.TPOT }), want: ScaleOut}}},
		{"hybrid-slo/margin TPOT below 0.8", hybrid, []step{
			{sig: sig(func(s *ScaleSignals) { s.TPOT = down(0.8 * sla.TPOT) }), want: ScaleHold}}},
		{"hybrid-slo/out-backlog at 2", hybrid, []step{{sig: backlog(2000, 100), want: ScaleHold}}},
		{"hybrid-slo/out-backlog past 2", hybrid, []step{{sig: backlog(2001, 100), want: ScaleOut}}},
		{"hybrid-slo/in-idle at 10", hybrid, []step{{sig: idle(10), want: ScaleIn}}},
		{"hybrid-slo/in-idle below 10", hybrid, []step{{sig: idle(down(10)), want: ScaleHold}}},
		{"hybrid-slo/cooldown after out at 5 s", hybrid, []step{
			{sig: backlog(2001, 100), want: ScaleOut}, {sig: backlog(2001, 105), want: ScaleOut}}},
		{"hybrid-slo/cooldown after out inside 5 s", hybrid, []step{
			{sig: backlog(2001, 100), want: ScaleOut}, {sig: backlog(2001, down(105)), want: ScaleHold}}},
		{"hybrid-slo/cooldown after in at 5 s", hybrid, []step{
			{sig: idle(10), want: ScaleIn}, {sig: backlog(2001, 105), want: ScaleOut}}},
		{"hybrid-slo/cooldown after in inside 5 s", hybrid, []step{
			{sig: idle(10), want: ScaleIn}, {sig: backlog(2001, down(105)), want: ScaleHold}}},

		{"alert-aware/out-backlog at 2", alertAware, []step{{sig: backlog(2000, 100), want: ScaleHold}}},
		{"alert-aware/out-backlog past 2", alertAware, []step{{sig: backlog(2001, 100), want: ScaleOut}}},
		{"alert-aware/in-idle at 10", alertAware, []step{{sig: idle(10), want: ScaleIn}}},
		{"alert-aware/in-idle below 10", alertAware, []step{{sig: idle(down(10)), want: ScaleHold}}},
		{"alert-aware/cooldown at 2 s", alertAware, []step{
			{sig: firing(100), want: ScaleOut}, {sig: firing(102), want: ScaleOut}}},
		{"alert-aware/cooldown inside 2 s", alertAware, []step{
			{sig: firing(100), want: ScaleOut}, {sig: firing(down(102)), want: ScaleHold}}},
		{"alert-aware/cooldown does not gate scale-in", alertAware, []step{
			{sig: firing(100), want: ScaleOut}, {sig: idle(10), want: ScaleIn}}},

		{"adaptive/min-dwell at 3 s", adaptive, []step{
			{sig: stageShare(10), want: ScaleHold, law: "backlog"},
			{sig: regret(13, "occupancy"), want: ScaleHold, law: "occupancy"}}},
		{"adaptive/min-dwell inside 3 s", adaptive, []step{
			{sig: stageShare(10), want: ScaleHold, law: "backlog"},
			{sig: regret(down(13), "occupancy"), want: ScaleHold, law: "backlog"}}},
		{"adaptive/min-dwell from the start at 3 s", adaptive, []step{
			{sig: stageShare(3), want: ScaleHold, law: "backlog"}}},
		{"adaptive/min-dwell from the start inside 3 s", adaptive, []step{
			{sig: stageShare(down(3)), want: ScaleHold, law: "hybrid-slo"}}},
		// On the kv-headroom delegate, which ignores backlog, only the meta
		// layer's reflex can answer a backlog spike.
		{"adaptive/out-backlog at 2", adaptive, []step{
			{sig: regret(100, "kv-headroom"), want: ScaleHold, law: "kv-headroom"},
			{sig: backlog(2000, 101), want: ScaleHold, law: "kv-headroom"}}},
		{"adaptive/out-backlog past 2", adaptive, []step{
			{sig: regret(100, "kv-headroom"), want: ScaleHold, law: "kv-headroom"},
			{sig: backlog(2001, 101), want: ScaleOut, law: "kv-headroom"}}},
		// Inside the reflex cool-down the meta layer holds even though the
		// fresh hybrid-slo delegate would scale out on the same spike.
		{"adaptive/cooldown at 2 s", adaptive, []step{
			{sig: backlog(2001, 100), want: ScaleOut}, {sig: backlog(2001, 102), want: ScaleOut}}},
		{"adaptive/cooldown inside 2 s", adaptive, []step{
			{sig: backlog(2001, 100), want: ScaleOut}, {sig: backlog(2001, down(102)), want: ScaleHold}}},
	}
	for _, tc := range cases {
		p := tc.mk()
		for i, st := range tc.steps {
			if d := p.Decide(st.sig); d != st.want {
				t.Errorf("%s: step %d (t=%v) = %v, want %v", tc.name, i, st.sig.Now, d, st.want)
			}
			if st.law != "" {
				if got := p.(MetaPolicy).ActiveLaw(); got != st.law {
					t.Errorf("%s: step %d active law = %s, want %s", tc.name, i, got, st.law)
				}
			}
		}
	}
}
