package slo

import (
	"bytes"
	"reflect"
	"testing"

	"heroserve/internal/telemetry"
)

// testHub is a hand-driven hub: the test owns the clock and bumps the same
// registry series internal/serving registers, so every rule law can be
// exercised without running a simulation.
type testHub struct {
	hub   *telemetry.Hub
	clock float64

	met, missed  *telemetry.Counter
	admitted     *telemetry.Counter
	completed    *telemetry.Counter
	stageDecode  *telemetry.Counter
	stagePrefill *telemetry.Counter
	stageFault   *telemetry.Counter
	kv           *telemetry.Gauge
}

func newTestHub() *testHub {
	th := &testHub{hub: telemetry.New()}
	th.hub.Attach(func() float64 { return th.clock }, "test")
	reg := th.hub.Metrics
	th.met = reg.Counter("sla_requests_total", "t", []string{"verdict"}, "met")
	th.missed = reg.Counter("sla_requests_total", "t", []string{"verdict"}, "missed")
	th.admitted = reg.Counter("serving_requests_admitted_total", "t", nil)
	th.completed = reg.Counter("serving_requests_completed_total", "t", nil)
	th.stageDecode = reg.Counter("e2e_critical_path_seconds_total", "t", []string{"stage"}, "decode-queue")
	th.stagePrefill = reg.Counter("e2e_critical_path_seconds_total", "t", []string{"stage"}, "prefill-compute")
	th.stageFault = reg.Counter("e2e_critical_path_seconds_total", "t", []string{"stage"}, "fault-stall")
	th.kv = reg.Gauge("decode_kv_utilization", "t", []string{"instance"}, "decode-0")
	return th
}

// step advances the clock one sim-second and evaluates.
func (th *testHub) step(m *Monitor) {
	th.clock++
	m.Step(th.clock)
}

func TestMonitorBurnRateLifecycle(t *testing.T) {
	th := newTestHub()
	rule := Rule{
		Name: "burn", Kind: KindBurnRate, Severity: SevCritical,
		Objective: ObjAttainment, Target: 0.9,
		Fast: BurnWindow{Seconds: 2, Burn: 2}, Slow: BurnWindow{Seconds: 4, Burn: 1},
	}
	m := NewMonitor(th.hub, Config{Rules: []Rule{rule}})
	if m == nil {
		t.Fatal("monitor not armed")
	}
	m.Prime(0)

	// Three healthy seconds, then one second of heavy SLA misses, then healthy
	// traffic until the miss burst falls out of both windows.
	for i := 0; i < 3; i++ {
		th.met.Add(10)
		th.step(m)
	}
	th.met.Add(5)
	th.missed.Add(5)
	th.step(m) // t=4: errFast=5/10, errSlow=5/40 — both windows over budget
	if got := m.Firing(); len(got) != 1 || got[0].Rule != "burn" {
		t.Fatalf("firing set at t=4: %+v", got)
	}
	th.met.Add(10)
	th.step(m) // t=5: still breached (miss burst inside both windows)
	th.met.Add(10)
	th.step(m) // t=6: fast window is clean — resolves

	log := m.Log()
	if len(log.Alerts) != 1 {
		t.Fatalf("alerts: %+v", log.Alerts)
	}
	a := log.Alerts[0]
	if a.State != StateResolved || a.Since != 4 || a.FiredAt != 4 || a.ResolvedAt != 6 {
		t.Errorf("lifecycle: %+v", a)
	}
	if a.Cause == nil || len(a.Cause.Values) == 0 {
		t.Fatalf("cause missing: %+v", a.Cause)
	}
	if m.Firing() != nil || m.Pending() != nil {
		t.Errorf("live set not cleared: firing %+v, pending %+v", m.Firing(), m.Pending())
	}

	// Lifecycle counters and the active gauge reflect the round trip.
	reg := th.hub.Metrics
	for st, want := range map[string]float64{"pending": 1, "firing": 1, "resolved": 1} {
		if v, ok := reg.Value("alerts_total", "burn", st); !ok || v != want {
			t.Errorf("alerts_total{state=%q} = %g, %v", st, v, ok)
		}
	}
	if v, ok := reg.Value("alert_active", "burn"); !ok || v != 0 {
		t.Errorf("alert_active = %g, %v", v, ok)
	}
}

func TestMonitorForDelayAndCanceledPending(t *testing.T) {
	th := newTestHub()
	rule := Rule{Name: "kv", Kind: KindKVSaturation, Severity: SevWarning, Threshold: 0.9, For: 3}
	m := NewMonitor(th.hub, Config{Rules: []Rule{rule}})
	m.Prime(0)

	// Breach for two ticks — shorter than For — then clear: canceled pending.
	th.kv.Set(0.95)
	th.step(m) // t=1 pending
	th.step(m) // t=2 still pending
	th.kv.Set(0.5)
	th.step(m) // t=3 canceled

	// Breach long enough to fire.
	th.kv.Set(0.97)
	th.step(m) // t=4 pending
	th.step(m) // t=5
	th.step(m) // t=6
	th.step(m) // t=7: 7-4 >= For — fires

	log := m.Log()
	if len(log.Alerts) != 2 {
		t.Fatalf("alerts: %+v", log.Alerts)
	}
	canceled, fired := log.Alerts[0], log.Alerts[1]
	if canceled.State != StateResolved || canceled.FiredAt != -1 || canceled.ResolvedAt != 3 {
		t.Errorf("canceled pending: %+v", canceled)
	}
	if fired.State != StateFiring || fired.FiredAt != 7 || fired.ResolvedAt != -1 {
		t.Errorf("fired alert: %+v", fired)
	}
	s := log.Summarize()
	if s.Canceled != 1 || s.Fired != 1 || s.FiringAtEnd != 1 || s.Worst != "warning" {
		t.Errorf("summary: %+v", s)
	}
}

// TestMonitorLiveAlerts: Firing and Pending list the live alerts by rule
// name, a pending alert (inside its For hold-down) is invisible to Firing,
// firing moves it out of Pending, and resolution drains both.
func TestMonitorLiveAlerts(t *testing.T) {
	th := newTestHub()
	m := NewMonitor(th.hub, Config{Rules: []Rule{
		{Name: "kv-warn", Kind: KindKVSaturation, Severity: SevWarning, Threshold: 0.9, For: 2},
		{Name: "kv-crit", Kind: KindKVSaturation, Severity: SevCritical, Threshold: 0.8},
	}})
	m.Prime(0)
	rules := func(as []Alert) []string {
		var names []string
		for _, a := range as {
			names = append(names, a.Rule)
		}
		return names
	}
	check := func(at string, firing, pending []string) {
		t.Helper()
		if got := rules(m.Firing()); !reflect.DeepEqual(got, firing) {
			t.Errorf("%s: Firing = %v, want %v", at, got, firing)
		}
		if got := rules(m.Pending()); !reflect.DeepEqual(got, pending) {
			t.Errorf("%s: Pending = %v, want %v", at, got, pending)
		}
	}
	check("t=0", nil, nil)

	th.kv.Set(0.85)
	th.step(m) // t=1: kv-crit fires at once (no hold-down); kv-warn not breached
	check("t=1", []string{"kv-crit"}, nil)
	th.kv.Set(0.95)
	th.step(m) // t=2: kv-warn pending
	check("t=2", []string{"kv-crit"}, []string{"kv-warn"})
	th.kv.Set(0.5)
	th.step(m) // t=3: both clear; kv-crit resolves, kv-warn is canceled
	check("t=3", nil, nil)

	th.kv.Set(0.95)
	th.step(m) // t=4: kv-crit fires, kv-warn pending
	th.step(m) // t=5
	th.step(m) // t=6: 6-4 >= For — kv-warn fires
	check("t=6", []string{"kv-crit", "kv-warn"}, nil)
	if f := m.Firing(); f[1].Since != 4 || f[1].FiredAt != 6 || f[1].Cause == nil {
		t.Errorf("kv-warn firing copy = %+v, want since 4, fired at 6, with a cause", f[1])
	}
	// The slices are copies: changing one leaves the monitor alone.
	m.Firing()[0].State = StateResolved
	check("t=6 after caller edit", []string{"kv-crit", "kv-warn"}, nil)
}

func TestMonitorQueueGrowth(t *testing.T) {
	th := newTestHub()
	rule := Rule{Name: "q", Kind: KindQueueGrowth, Severity: SevWarning,
		Over: 4, Threshold: 1, MinMass: 5}
	m := NewMonitor(th.hub, Config{Rules: []Rule{rule}})
	m.Prime(0)

	th.admitted.Add(3)
	th.step(m) // t=1: in-flight 3 < MinMass
	th.admitted.Add(3)
	th.step(m) // t=2: in-flight 6, slope 3/s — fires
	log := m.Log()
	if len(log.Alerts) != 1 || log.Alerts[0].FiredAt != 2 {
		t.Fatalf("queue-growth did not fire at t=2: %+v", log.Alerts)
	}
	th.completed.Add(6)
	th.step(m) // t=3: drained — resolves
	if a := m.Log().Alerts[0]; a.State != StateResolved || a.ResolvedAt != 3 {
		t.Errorf("queue-growth lifecycle: %+v", a)
	}
}

func TestMonitorStageShift(t *testing.T) {
	th := newTestHub()
	rule := Rule{Name: "shift", Kind: KindStageShift, Severity: SevInfo, Over: 3, MinMass: 1}
	m := NewMonitor(th.hub, Config{Rules: []Rule{rule}})
	m.Prime(0)

	// Prefill-dominant regime, then the critical path shifts to decode queue.
	for i := 0; i < 4; i++ {
		th.stagePrefill.Add(1)
		th.step(m)
	}
	for i := 0; i < 4; i++ {
		th.stageDecode.Add(3)
		th.step(m)
	}
	log := m.Log()
	if len(log.Alerts) == 0 {
		t.Fatal("stage shift never detected")
	}
	a := log.Alerts[0]
	if a.FiredAt < 0 {
		t.Fatalf("stage shift never fired: %+v", a)
	}
	if a.Cause == nil || a.Cause.Dominant != "decode-queue" || a.Cause.Baseline != "prefill-compute" {
		t.Errorf("cause: %+v", a.Cause)
	}
	// The live view carries the same cause: the autoscaler reads a firing
	// alert's dominant stage from it.
	if f := m.Firing(); len(f) != 1 || f[0].Cause == nil || f[0].Cause.Dominant != "decode-queue" {
		t.Errorf("Firing = %+v, want the shift alert with its decode-queue cause", f)
	}
}

func TestMonitorFaultBudget(t *testing.T) {
	th := newTestHub()
	rule := Rule{Name: "fault", Kind: KindFaultBudget, Severity: SevCritical,
		Over: 5, Threshold: 0.2, MinMass: 1}
	m := NewMonitor(th.hub, Config{Rules: []Rule{rule}})
	m.Prime(0)

	th.stageDecode.Add(1)
	th.step(m) // t=1
	th.stageDecode.Add(1)
	th.step(m) // t=2
	th.stageFault.Add(3)
	th.step(m) // t=3: fault share 3/5 — fires
	log := m.Log()
	if len(log.Alerts) != 1 || log.Alerts[0].FiredAt != 3 {
		t.Fatalf("fault budget did not fire at t=3: %+v", log.Alerts)
	}
	if dom := log.Alerts[0].Cause.Dominant; dom != "fault-stall" {
		t.Errorf("dominant cause = %q", dom)
	}
	// Fault-free decode progress until the burst leaves the window.
	for i := 0; i < 6; i++ {
		th.stageDecode.Add(2)
		th.step(m)
	}
	if a := m.Log().Alerts[0]; a.State != StateResolved {
		t.Errorf("fault budget never resolved: %+v", a)
	}
}

func TestMonitorPrimeScopesRun(t *testing.T) {
	th := newTestHub()
	// A previous run left a terrible attainment record in the shared registry.
	th.met.Add(10)
	th.missed.Add(90)

	rule := Rule{
		Name: "burn", Kind: KindBurnRate, Severity: SevCritical,
		Objective: ObjAttainment, Target: 0.9,
		Fast: BurnWindow{Seconds: 2, Burn: 2}, Slow: BurnWindow{Seconds: 4, Burn: 1},
	}
	m := NewMonitor(th.hub, Config{Rules: []Rule{rule}})
	m.Prime(th.clock)
	for i := 0; i < 6; i++ {
		th.met.Add(10) // this run is perfectly healthy
		th.step(m)
	}
	if log := m.Log(); len(log.Alerts) != 0 {
		t.Errorf("stale pre-run counters leaked into the run: %+v", log.Alerts)
	}
}

func TestMonitorDeterministicLog(t *testing.T) {
	run := func() []byte {
		th := newTestHub()
		m := NewMonitor(th.hub, Config{Rules: DefaultRules(2.5, 0.15)})
		m.Prime(0)
		for i := 0; i < 10; i++ {
			th.met.Add(2)
			if i >= 3 && i <= 5 {
				th.missed.Add(8)
				th.stageFault.Add(2)
			}
			th.stageDecode.Add(1)
			th.admitted.Add(3)
			th.completed.Add(2)
			th.kv.Set(float64(i) / 10)
			th.step(m)
		}
		m.Finish(th.clock)
		var buf bytes.Buffer
		if err := m.WriteLog(&buf); err != nil {
			t.Fatalf("write log: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("alert logs differ across identical runs:\n%s\n---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Error("empty log")
	}
}

// TestSignalFeedNilSafety: the live-alert signals a disarmed (nil) monitor
// hands its readers are empty, so the autoscaler can read them without a nil
// check.
func TestSignalFeedNilSafety(t *testing.T) {
	var m *Monitor
	if m.Firing() != nil || m.Pending() != nil {
		t.Errorf("nil monitor has live alerts")
	}
}

func TestMonitorNilSafety(t *testing.T) {
	var m *Monitor
	m.Prime(0)
	m.Step(1)
	m.Finish(2)
	if m.Interval() != 1 {
		t.Errorf("nil Interval = %g", m.Interval())
	}
	if NewMonitor(nil, Config{Rules: DefaultRules(1, 1)}) != nil {
		t.Errorf("monitor armed on nil hub")
	}
	if NewMonitor(telemetry.New(), Config{}) != nil {
		t.Errorf("monitor armed with no rules")
	}
}
