package serving

import (
	"bytes"
	"testing"

	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/decisions"
	"heroserve/internal/telemetry/slo"
	"heroserve/internal/topology"
)

// runScaleLedger executes one telemetered autoscaled burst run and returns
// the results and the decision ledger.
func runScaleLedger(t *testing.T, cfg *AutoscaleConfig) (*Results, *decisions.Ledger, *telemetry.Hub) {
	t.Helper()
	g := topology.Testbed()
	dep := scaleDeployment(t, g)
	hub := telemetry.New()
	sla := SLA{TTFT: 2.5, TPOT: 0.15}
	sys, err := New(g, dep, Options{
		MaxDecodeBatch: 8,
		Autoscale:      cfg,
		Telemetry:      hub,
		SLA:            &sla,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(burstTrace(60))
	led := sys.DecisionLedger()
	if led == nil {
		t.Fatal("telemetered run has no decision ledger")
	}
	return res, led, hub
}

func scaleCfg() *AutoscaleConfig {
	return &AutoscaleConfig{
		InitialActive: 1,
		Policy:        NewBacklogPolicy(1, 10),
		Interval:      0.5,
	}
}

func TestScaleLedgerRecordsAndOutcomes(t *testing.T) {
	res, led, hub := runScaleLedger(t, scaleCfg())
	if res.Served != 63 {
		t.Fatalf("served %d/63", res.Served)
	}
	if led.NumScale() == 0 {
		t.Fatal("no scale records")
	}
	if led.Meta.Fleet != 3 || led.Meta.InitialActive != 1 || led.Meta.Interval != 0.5 {
		t.Errorf("meta = %+v", led.Meta)
	}
	if led.Meta.End <= 0 {
		t.Error("run end not stamped")
	}
	panel := len(ScalePolicyNames)
	var applied, completed int
	for i := 0; i < led.NumScale(); i++ {
		r := led.Scale(i)
		if len(r.Shadows) != panel {
			t.Fatalf("record %d carries %d shadows, want the default panel of %d", i, len(r.Shadows), panel)
		}
		for j := 1; j < len(r.Shadows); j++ {
			if r.Shadows[j-1].Law >= r.Shadows[j].Law {
				t.Fatalf("record %d shadows not sorted by law: %v", i, r.Shadows)
			}
		}
		if r.Applied != "none" {
			applied++
			if r.Instance < 0 {
				t.Errorf("record %d applied %s without an instance", i, r.Applied)
			}
		} else if r.Instance != -1 {
			t.Errorf("record %d applied none with instance %d", i, r.Instance)
		}
		// Every record's outcome window is stamped (the last at run end).
		if r.Outcome == nil {
			t.Fatalf("record %d has no outcome", i)
		}
		// The window runs to the next decision (the last to run end), bit
		// for bit: the shadow ranking's GPU-seconds rest on it.
		next := led.Meta.End
		if i+1 < led.NumScale() {
			next = led.Scale(i + 1).T
		}
		if r.Outcome.Horizon != next-r.T || r.Outcome.Horizon < 0 {
			t.Errorf("record %d horizon %g, want %g - %g", i, r.Outcome.Horizon, next, r.T)
		}
		if r.Outcome.Met > r.Outcome.Completed {
			t.Errorf("record %d met %d > completed %d", i, r.Outcome.Met, r.Outcome.Completed)
		}
		completed += r.Outcome.Completed
	}
	if applied == 0 {
		t.Error("burst run applied no scale action")
	}
	// Outcome windows partition the run: every completion lands in exactly
	// one window (requests finishing after the final control step are
	// stamped into it at run end).
	if completed != res.Served {
		t.Errorf("outcome windows hold %d completions, served %d", completed, res.Served)
	}
	if v, ok := hub.Metrics.Value("decision_records_total", decisions.KindScale); !ok || v != float64(led.NumScale()) {
		t.Errorf("decision_records_total{scale} = %v,%v, want %d", v, ok, led.NumScale())
	}
	// Shadow ranking is derivable from the single run.
	ranks := led.ShadowRanking()
	if len(ranks) != panel {
		t.Fatalf("shadow ranking has %d laws, want %d", len(ranks), panel)
	}
	for i, r := range ranks {
		if r.Rank != i+1 {
			t.Errorf("rank %d row says %d", i+1, r.Rank)
		}
		if r.EstGPUSeconds <= 0 {
			t.Errorf("%s replayed %g GPU-seconds", r.Law, r.EstGPUSeconds)
		}
	}
}

func TestScaleLedgerDeterminism(t *testing.T) {
	render := func() []byte {
		_, led, _ := runScaleLedger(t, scaleCfg())
		var buf bytes.Buffer
		if err := led.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Error("same-seed runs produced different scale-ledger bytes")
	}
}

// hostileShadow is a scripted law that tries everything a shadow could do to
// perturb the run: it mutates every writable field of the signal snapshot it
// is handed — including writing through the SLA pointer — and returns the
// opposite of a sane verdict. The autoscaler must isolate it completely.
type hostileShadow struct{ calls int }

func (h *hostileShadow) Name() string { return "hostile" }

func (h *hostileShadow) Decide(sig ScaleSignals) ScaleDecision {
	h.calls++
	if sig.SLA != nil {
		sig.SLA.TTFT = -1 // a write through the pointer would wreck attainment
		sig.SLA.TPOT = -1
	}
	sig.Backlog = 1 << 20
	sig.Occupancy = 99
	if h.calls%2 == 0 {
		return ScaleIn
	}
	return ScaleOut
}

// TestShadowPurity is the white-box isolation proof: an actively hostile
// shadow law must not change a single byte of the run's behaviour — same
// served count, same scale events, same latencies, same SLA verdicts.
func TestShadowPurity(t *testing.T) {
	run := func(shadows []ScalePolicy) (*Results, *telemetry.Hub) {
		cfg := scaleCfg()
		cfg.ShadowPolicies = shadows
		res, _, hub := runScaleLedger(t, cfg)
		return res, hub
	}
	// Baseline: shadows disabled (non-nil empty panel).
	base, baseHub := run([]ScalePolicy{})
	hostile := &hostileShadow{}
	got, gotHub := run([]ScalePolicy{hostile})

	if hostile.calls == 0 {
		t.Fatal("hostile shadow was never consulted")
	}
	if got.Served != base.Served {
		t.Errorf("served %d with hostile shadow, %d without", got.Served, base.Served)
	}
	if len(got.ScaleEvents) != len(base.ScaleEvents) {
		t.Fatalf("scale events %d with hostile shadow, %d without", len(got.ScaleEvents), len(base.ScaleEvents))
	}
	for i := range got.ScaleEvents {
		if got.ScaleEvents[i] != base.ScaleEvents[i] {
			t.Errorf("scale event %d: %+v vs %+v", i, got.ScaleEvents[i], base.ScaleEvents[i])
		}
	}
	sla := SLA{TTFT: 2.5, TPOT: 0.15}
	if a, b := got.Attainment(sla), base.Attainment(sla); a != b {
		t.Errorf("attainment %g with hostile shadow, %g without", a, b)
	}
	gt, bt := got.TTFTs(), base.TTFTs()
	if len(gt) != len(bt) {
		t.Fatalf("TTFT counts differ: %d vs %d", len(gt), len(bt))
	}
	for i := range gt {
		if gt[i] != bt[i] {
			t.Fatalf("TTFT %d differs: %g vs %g", i, gt[i], bt[i])
		}
	}
	// Latency histograms in the registry must match exactly too; the shadow
	// counters are the only metric families allowed to differ.
	for _, m := range []string{"ttft_seconds", "tpot_seconds"} {
		a, okA := baseHub.Metrics.HistogramCount(m)
		b, okB := gotHub.Metrics.HistogramCount(m)
		if !okA || !okB || a != b {
			t.Errorf("%s count %v,%v vs %v,%v", m, a, okA, b, okB)
		}
	}
}

// slaScribbler corrupts the SLA through the pointer it is handed on every
// call; slaObserver records what it sees. Shadows run sorted by name, so
// "a-scribbler" always precedes "b-observer".
type slaScribbler struct{}

func (slaScribbler) Name() string { return "a-scribbler" }

func (slaScribbler) Decide(sig ScaleSignals) ScaleDecision {
	if sig.SLA != nil {
		sig.SLA.TTFT, sig.SLA.TPOT = -1, -1
	}
	return ScaleHold
}

type slaObserver struct{ bad int }

func (o *slaObserver) Name() string { return "b-observer" }

func (o *slaObserver) Decide(sig ScaleSignals) ScaleDecision {
	if sig.SLA == nil || sig.SLA.TTFT != 2.5 || sig.SLA.TPOT != 0.15 {
		o.bad++
	}
	return ScaleHold
}

// TestShadowPrivateSLA is the regression for the shadow SLA aliasing bug:
// every shadow used to share one SLA copy, so one law writing through the
// pointer corrupted the snapshot every later shadow saw on the same step.
// Each shadow must get its own private copy.
func TestShadowPrivateSLA(t *testing.T) {
	cfg := scaleCfg()
	obs := &slaObserver{}
	cfg.ShadowPolicies = []ScalePolicy{slaScribbler{}, obs}
	_, led, _ := runScaleLedger(t, cfg)
	if led.NumScale() == 0 {
		t.Fatal("no scale records")
	}
	if obs.bad > 0 {
		t.Errorf("observer saw a corrupted SLA on %d of %d steps", obs.bad, led.NumScale())
	}
}

// TestAdaptiveSwitchLandsInLedger closes the loop end to end: an adaptive
// primary under a live SLO monitor must see the firing alert in its signals
// (the alert feed is consumed, not just recorded) and every runtime
// law switch must land in the ledger naming its driving signal.
func TestAdaptiveSwitchLandsInLedger(t *testing.T) {
	g := topology.Testbed()
	dep := scaleDeployment(t, g)
	hub := telemetry.New()
	sla := SLA{TTFT: 2.5, TPOT: 0.15}
	sys, err := New(g, dep, Options{
		MaxDecodeBatch: 8,
		Telemetry:      hub,
		SLA:            &sla,
		SLO: &slo.Config{Every: 0.5, Rules: []slo.Rule{
			// A hair-trigger kv-saturation rule: fires as soon as the burst
			// occupies any KV at all, forcing hybrid-slo -> kv-headroom.
			{Name: "kv-hot", Kind: slo.KindKVSaturation, Severity: slo.SevWarning, Threshold: 0.01},
		}},
		Autoscale: &AutoscaleConfig{
			InitialActive: 1,
			Interval:      0.5,
			Policy:        NewAdaptivePolicy(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(burstTrace(60))
	if res.Served != 63 {
		t.Fatalf("served %d/63", res.Served)
	}
	led := sys.DecisionLedger()
	if led == nil || led.NumScale() == 0 {
		t.Fatal("no scale records")
	}
	var sawAlert, sawSwitch bool
	for i := 0; i < led.NumScale(); i++ {
		r := led.Scale(i)
		if r.Law == "" {
			t.Fatalf("record %d from a meta-policy has no active law", i)
		}
		if len(r.Signals.ActiveAlerts) > 0 {
			sawAlert = true
		}
		if r.Switch != "" {
			sawSwitch = true
			switch r.SwitchSignal {
			case "alert", "stage-share", "regret":
			default:
				t.Errorf("record %d switch %q has signal %q, want alert|stage-share|regret",
					i, r.Switch, r.SwitchSignal)
			}
		}
	}
	if !sawAlert {
		t.Error("no record saw an active alert: the feed never reached the signals")
	}
	if !sawSwitch {
		t.Error("the firing kv-saturation alert produced no ledger-visible law switch")
	}
	sum := led.Summarize()
	if len(sum.Switches) == 0 {
		t.Error("summary rolled up no switches")
	}
}
