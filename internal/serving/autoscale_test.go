package serving

import (
	"math"
	"testing"

	"heroserve/internal/collective"
	"heroserve/internal/model"
	"heroserve/internal/sim"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/decisions"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// scaleDeployment builds OPT-13B with one prefill instance and three decode
// instances (one per remaining server's half), so the autoscaler has
// reserves to play with.
func scaleDeployment(t *testing.T, g *topology.Graph) Deployment {
	t.Helper()
	sw := g.Switches()[0]
	pre, err := NewInstanceSpec(RolePrefill, g.ServerGPUs(0), 4, 1, sw, collective.SchemeRing)
	if err != nil {
		t.Fatal(err)
	}
	var dec []InstanceSpec
	for s := 1; s <= 3; s++ {
		di, err := NewInstanceSpec(RoleDecode, g.ServerGPUs(s), 4, 1, sw, collective.SchemeRing)
		if err != nil {
			t.Fatal(err)
		}
		dec = append(dec, di)
	}
	return Deployment{Model: model.OPT13B(), Prefill: []InstanceSpec{pre}, Decode: dec}
}

// burstTrace builds a trace with a dense burst followed by a long quiet
// tail, the regime autoscaling is for.
func burstTrace(n int) *workload.Trace {
	tr := &workload.Trace{Name: "burst"}
	for i := 0; i < n; i++ {
		tr.Requests = append(tr.Requests, workload.Request{
			ID: i, Arrival: 0.05 * float64(i+1), Input: 256, Output: 160,
		})
	}
	// Stragglers long after the burst (the scale-in window).
	for i := 0; i < 3; i++ {
		tr.Requests = append(tr.Requests, workload.Request{
			ID: n + i, Arrival: 120 + 10*float64(i), Input: 128, Output: 40,
		})
	}
	return tr
}

func TestAutoscalerScalesOutAndIn(t *testing.T) {
	g := topology.Testbed()
	dep := scaleDeployment(t, g)
	sys, err := New(g, dep, Options{
		MaxDecodeBatch: 8, // tight batches force backlog under the burst
		Autoscale: &AutoscaleConfig{
			InitialActive: 1,
			Policy:        NewBacklogPolicy(1, 10),
			Interval:      0.5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(burstTrace(60))
	if res.Served != 63 {
		t.Fatalf("served %d/63", res.Served)
	}
	var activations, readies, deactivations int
	peak := 1
	for _, e := range res.ScaleEvents {
		switch e.Action {
		case "activate":
			activations++
		case "ready":
			readies++
			if e.Active > peak {
				peak = e.Active
			}
		case "deactivate":
			deactivations++
		}
	}
	if activations == 0 || readies == 0 {
		t.Fatalf("no scale-out under burst: %+v", res.ScaleEvents)
	}
	if peak < 2 {
		t.Errorf("peak active = %d, want >= 2", peak)
	}
	if deactivations == 0 {
		t.Errorf("no scale-in during the quiet tail: %+v", res.ScaleEvents)
	}
	if res.ActiveGPUSeconds <= 0 {
		t.Error("no GPU-seconds accounted")
	}
	// Autoscaling must use fewer decode GPU-seconds than keeping all three
	// instances up the whole run.
	static := float64(12) * res.Duration
	if res.ActiveGPUSeconds >= static {
		t.Errorf("autoscaled GPU-seconds %.0f not below static %.0f", res.ActiveGPUSeconds, static)
	}
}

func TestAutoscalerOffAccounting(t *testing.T) {
	g := topology.Testbed()
	dep := scaleDeployment(t, g)
	sys, err := New(g, dep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(burstTrace(10))
	want := float64(12) * res.Duration // 3 instances x 4 GPUs
	if res.ActiveGPUSeconds != want {
		t.Errorf("static GPU-seconds = %g, want %g", res.ActiveGPUSeconds, want)
	}
	if len(res.ScaleEvents) != 0 {
		t.Error("scale events without autoscaler")
	}
}

// loadProbe is an engine profiler that checks, after every event, that no
// decode instance runs a decode iteration while its weights are loading, and
// notes which instances ever iterated.
type loadProbe struct {
	sys      *System
	early    map[int]bool // instances seen iterating while activating
	iterated map[int]bool
}

func (p *loadProbe) BeginEvent(sim.Time) int64 { return 0 }

func (p *loadProbe) EndEvent(int64) {
	for _, di := range p.sys.decode {
		if !di.iterating {
			continue
		}
		if di.activating {
			p.early[di.id] = true
		}
		p.iterated[di.id] = true
	}
}

// TestAutoscalerActivationDelay: a reserve loads its weights at 20 GB/s per
// GPU, so each "ready" comes exactly WeightBytesPerGPU/20e9 after its
// "activate", and the instance decodes nothing before then.
func TestAutoscalerActivationDelay(t *testing.T) {
	g := topology.Testbed()
	dep := scaleDeployment(t, g)
	sys, err := New(g, dep, Options{
		MaxDecodeBatch: 8,
		Autoscale: &AutoscaleConfig{
			InitialActive: 1,
			Policy:        NewBacklogPolicy(1, 10),
			Interval:      0.5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := &loadProbe{sys: sys, early: map[int]bool{}, iterated: map[int]bool{}}
	sys.eng.SetProfiler(probe)
	res := sys.Run(burstTrace(60))
	if res.Served != 63 {
		t.Fatalf("served %d/63", res.Served)
	}
	if len(probe.early) != 0 {
		t.Errorf("instances %v ran decode iterations while their weights loaded", probe.early)
	}
	delay := float64(dep.Model.WeightBytesPerGPU(4, 1)) / 20e9
	activated := map[int]sim.Time{}
	readies, served := 0, 0
	for _, e := range res.ScaleEvents {
		switch e.Action {
		case "activate":
			activated[e.ID] = e.T
		case "ready":
			at, ok := activated[e.ID]
			if !ok {
				t.Fatalf("instance %d ready at %.3f s without an activation", e.ID, e.T)
			}
			if want := at + delay; e.T != want {
				t.Errorf("instance %d ready at %v s, want %v (activated at %v + %v s load)", e.ID, e.T, want, at, delay)
			}
			delete(activated, e.ID)
			readies++
			if probe.iterated[e.ID] {
				served++
			}
		}
	}
	if readies == 0 || served == 0 {
		t.Fatalf("%d activations became ready and %d of them served: want both above 0: %+v", readies, served, res.ScaleEvents)
	}
}

// TestAutoscalerRespectsMinActive: an aggressive scale-in law takes the
// fleet down to one truly-active instance and no further.
func TestAutoscalerRespectsMinActive(t *testing.T) {
	g := topology.Testbed()
	dep := scaleDeployment(t, g)
	sys, err := New(g, dep, Options{
		Autoscale: &AutoscaleConfig{
			InitialActive: 2,
			Policy:        NewBacklogPolicy(0, 0.5),
			Interval:      0.25,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(burstTrace(20))
	low := 3
	for _, e := range res.ScaleEvents {
		if e.Active < low {
			low = e.Active
		}
	}
	if low != 1 {
		t.Errorf("active fell to %d at its lowest, want the floor of 1: %+v", low, res.ScaleEvents)
	}
}

// scriptPolicy replays a fixed decision sequence, one per control step, then
// holds forever. It lets tests force the autoscaler into exact corners.
type scriptPolicy struct{ decs []ScaleDecision }

func (p *scriptPolicy) Name() string { return "script" }

func (p *scriptPolicy) Decide(ScaleSignals) ScaleDecision {
	if len(p.decs) == 0 {
		return ScaleHold
	}
	d := p.decs[0]
	p.decs = p.decs[1:]
	return d
}

// TestAutoscalerScaleInFromSimStart is the regression for the zero-timestamp
// idle sentinel: sim time starts at 0, so an instance idle since t=0 used to
// look "never idle" and was pinned active forever. Idle-from-start instances
// must scale in long before the first request arrives.
func TestAutoscalerScaleInFromSimStart(t *testing.T) {
	g := topology.Testbed()
	dep := scaleDeployment(t, g)
	sys, err := New(g, dep, Options{
		Autoscale: &AutoscaleConfig{
			InitialActive: 3,
			Policy:        NewBacklogPolicy(0, 10),
			Interval:      0.5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &workload.Trace{Name: "late", Requests: []workload.Request{
		{ID: 0, Arrival: 50, Input: 128, Output: 40},
	}}
	res := sys.Run(tr)
	if res.Served != 1 {
		t.Fatalf("served %d/1", res.Served)
	}
	var deacts []ScaleEvent
	for _, e := range res.ScaleEvents {
		if e.Action == "deactivate" {
			deacts = append(deacts, e)
		}
	}
	if len(deacts) != 2 {
		t.Fatalf("deactivations = %d, want 2 (3 idle-from-start instances down to MinActive 1): %+v",
			len(deacts), res.ScaleEvents)
	}
	for _, e := range deacts {
		if e.T >= 50 {
			t.Errorf("idle-from-start instance %d deactivated only at %.1f s, after the first arrival", e.ID, e.T)
		}
	}
	// Active is the committed count after the transition: 3 -> 2 -> 1.
	if deacts[0].Active != 2 || deacts[1].Active != 1 {
		t.Errorf("deactivate Active counts = %d, %d, want 2, 1", deacts[0].Active, deacts[1].Active)
	}
}

// TestAutoscalerMinActiveFloorDuringActivation pins the floor semantics: an
// activating instance serves nothing yet, so while one is still loading
// weights a concurrent scale-in must not dip the truly-active fleet below
// one instance (the old guard counted activating instances as active).
func TestAutoscalerMinActiveFloorDuringActivation(t *testing.T) {
	g := topology.Testbed()
	dep := scaleDeployment(t, g)
	// Steps at 0, 0.05, ..., 0.25 s: the scale-ins all land inside the
	// ~0.33 s OPT-13B weight load.
	const interval = 0.05
	sys, err := New(g, dep, Options{
		Autoscale: &AutoscaleConfig{
			InitialActive: 1,
			Interval:      interval,
			Policy: &scriptPolicy{decs: []ScaleDecision{
				ScaleOut, ScaleIn, ScaleIn, ScaleIn, ScaleIn, ScaleIn,
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(&workload.Trace{Name: "late", Requests: []workload.Request{
		{ID: 0, Arrival: 30, Input: 128, Output: 40},
	}})
	ready := -1.0
	for _, e := range res.ScaleEvents {
		switch e.Action {
		case "ready":
			ready = e.T
		case "deactivate":
			t.Errorf("deactivated instance %d at %.2f s: with 1 truly active, the in-flight activation must not unlock scale-in", e.ID, e.T)
		}
	}
	if ready < 0 {
		t.Fatal("the scripted scale-out never became ready")
	}
	if last := 5 * interval; ready <= last {
		t.Fatalf("the weights loaded at %.3f s, before the last scripted scale-in at %.3f s", ready, last)
	}
}

// TestAutoscalerGPUSecondsLedger replays the scale-event log against the
// GPU-seconds ledger: GPUs accrue from t=0 for initial instances, join at
// "ready" (a loading instance serves nothing and is not billed), and leave at
// "deactivate". The telemetry counter must agree with the Results exactly.
func TestAutoscalerGPUSecondsLedger(t *testing.T) {
	g := topology.Testbed()
	dep := scaleDeployment(t, g)
	hub := telemetry.New()
	sys, err := New(g, dep, Options{
		MaxDecodeBatch: 8,
		Telemetry:      hub,
		Autoscale: &AutoscaleConfig{
			InitialActive: 1,
			Policy:        NewBacklogPolicy(1, 10),
			Interval:      0.5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(burstTrace(60))
	var sawReady, sawDeact bool
	gpus, last, total := 4.0, 0.0, 0.0 // InitialActive 1 x 4 GPUs from t=0
	for _, e := range res.ScaleEvents {
		total += gpus * (float64(e.T) - last)
		last = float64(e.T)
		switch e.Action {
		case "ready":
			gpus += 4
			sawReady = true
		case "deactivate":
			gpus -= 4
			sawDeact = true
		}
	}
	total += gpus * (res.Duration - last)
	if !sawReady || !sawDeact {
		t.Fatalf("run exercised ready=%v deactivate=%v, need both: %+v", sawReady, sawDeact, res.ScaleEvents)
	}
	if diff := math.Abs(total - res.ActiveGPUSeconds); diff > 1e-9*total {
		t.Errorf("event-log ledger %.9f != accounted GPU-seconds %.9f", total, res.ActiveGPUSeconds)
	}
	got, ok := hub.Metrics.Value("decode_gpu_seconds_total")
	if !ok || got != res.ActiveGPUSeconds {
		t.Errorf("decode_gpu_seconds_total = %v (ok=%v), want exactly %v", got, ok, res.ActiveGPUSeconds)
	}
}

// TestStampOutcomeHoldsWindowWithoutPending is the regression for the
// outcome-cursor bug: stampOutcome used to advance outcomeSeen even with no
// record pending, silently dropping every completion that landed in a ledger
// gap. The window must be consumed only into a pending record's outcome.
func TestStampOutcomeHoldsWindowWithoutPending(t *testing.T) {
	sys := &System{}
	sys.opts.SLA = &SLA{TTFT: 1, TPOT: 0.1}
	sys.metrics = []RequestMetrics{
		{TTFT: 0.5, TPOT: 0.05}, // meets the SLA
		{TTFT: 2.0, TPOT: 0.05}, // TTFT miss
	}
	a := &autoscaler{sys: sys}
	// No record pending: the completions must stay queued for the next
	// stamped outcome, not be consumed into the void.
	a.stampOutcome(5)
	if a.outcomeSeen != 0 {
		t.Fatalf("outcomeSeen = %d after a no-pending stamp, want 0 (gap completions dropped)", a.outcomeSeen)
	}
	rec := &decisions.ScaleRecord{T: 4}
	a.pending = rec
	sys.metrics = append(sys.metrics, RequestMetrics{TTFT: 0.2, TPOT: 0.2}) // TPOT miss
	a.stampOutcome(6)
	if rec.Outcome == nil {
		t.Fatal("pending record got no outcome")
	}
	if rec.Outcome.Completed != 3 {
		t.Errorf("outcome completed = %d, want 3 (gap completions included)", rec.Outcome.Completed)
	}
	if rec.Outcome.Met != 1 {
		t.Errorf("outcome met = %d, want 1", rec.Outcome.Met)
	}
	if rec.Outcome.Horizon != 2 {
		t.Errorf("outcome horizon = %g, want 2", rec.Outcome.Horizon)
	}
	if a.pending != nil || a.outcomeSeen != 3 {
		t.Errorf("pending = %v, outcomeSeen = %d after stamping, want nil, 3", a.pending, a.outcomeSeen)
	}
}

// TestAutoscalerAlertPolicyWithoutMonitor pins the nil-monitor path: an
// alert-consuming primary on a run with no SLO config reads the nil monitor
// on every control step (collect → Firing/Pending) and still scales on its
// backlog backstop.
func TestAutoscalerAlertPolicyWithoutMonitor(t *testing.T) {
	cfg := scaleCfg()
	cfg.Policy = NewAlertAwarePolicy()
	res, led, _ := runScaleLedger(t, cfg)
	if res.Served != 63 {
		t.Fatalf("served %d/63", res.Served)
	}
	if sys := res.ScaleEvents; len(sys) == 0 {
		t.Fatal("no scale events at all")
	}
	var activated bool
	for _, e := range res.ScaleEvents {
		if e.Action == "activate" {
			activated = true
		}
	}
	if !activated {
		t.Error("alert-aware backstop never scaled out without a monitor")
	}
	for i := 0; i < led.NumScale(); i++ {
		r := led.Scale(i)
		if len(r.Signals.ActiveAlerts) != 0 {
			t.Fatalf("record %d carries alerts %v with no monitor armed", i, r.Signals.ActiveAlerts)
		}
	}
}
