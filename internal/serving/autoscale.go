package serving

import (
	"fmt"
	"math"
	"sort"

	"heroserve/internal/sim"
	"heroserve/internal/stats"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/decisions"
	"heroserve/internal/telemetry/slo"
)

// latencyWindow sizes the sliding window of recently completed requests
// backing the autoscaler's TTFT/TPOT signals.
const latencyWindow = 32

// minActive floors scale-in: the autoscaler never deactivates the last truly
// active decode instance. Deployment.Validate requires at least one decode
// instance, so the floor never exceeds the fleet.
const minActive = 1

// weightLoadBW is the per-GPU weight-loading bandwidth on activation,
// bytes/second: host-memory/NVMe staging into HBM.
const weightLoadBW = 20e9

// AutoscaleConfig enables the §VII future-work mechanism: "rapid scaling in
// and out to achieve finer-grained scheduling of computational resources".
// Decode instances beyond InitialActive start as deactivated reserves; a
// control loop samples the fleet's signals (backlog, occupancy, KV pressure,
// recent latencies) once per Interval and hands them to a pluggable
// ScalePolicy, which decides scale-out/in/hold. The autoscaler applies the
// decision mechanically: scale-out activates one reserve (paying a
// weight-loading delay), scale-in deactivates the longest-idle empty
// instance, never below minActive truly-active instances.
type AutoscaleConfig struct {
	// InitialActive decode instances start active; the rest are reserves.
	// Values <= 0 or beyond the instance count activate everything.
	InitialActive int
	// Interval is the control-loop period in simulated seconds (default 1).
	Interval float64
	// Policy decides scale-out/in/hold each step. Nil selects the classic
	// backlog law with its default parameters (NewBacklogPolicy(0, 0)).
	// Policies may be stateful: supply a fresh value per run.
	Policy ScalePolicy
	// SignalWindow is the time constant, in simulated seconds, of the
	// exponential smoothing applied to the occupancy and KV-utilization
	// signals (default 15).
	SignalWindow float64
	// ShadowPolicies are additional laws evaluated on every control step's
	// signals without ever driving the fleet; their verdicts land in the
	// decision ledger's disagreement matrix and feed the single-run shadow
	// ranking. Nil selects the full built-in panel (ScalePolicyNames with
	// default parameters); an empty non-nil slice disables shadowing.
	// Shadow evaluation is isolated: each law sees a private copy of the
	// signal snapshot (including the SLA), so a misbehaving law cannot
	// perturb the autoscaler. Requires telemetry (the ledger) to be armed.
	ShadowPolicies []ScalePolicy
}

func (c *AutoscaleConfig) setDefaults() {
	if c.Interval <= 0 {
		c.Interval = 1
	}
	if c.Policy == nil {
		c.Policy = NewBacklogPolicy(0, 0)
	}
	if c.SignalWindow <= 0 {
		c.SignalWindow = 15
	}
}

// ScaleEvent records one autoscaler transition.
//
// Active is the number of committed instances — truly active plus activating
// (weights loading) — after the transition takes effect, consistently across
// all three actions: "activate" counts the newly committed instance,
// "ready" keeps the count (the instance moves from activating to active),
// "deactivate" drops it.
type ScaleEvent struct {
	T      sim.Time
	Active int
	Action string // "activate" | "ready" | "deactivate"
	ID     int    // decode instance id
}

// expAvg is a deterministic exponential time-average: each observation pulls
// the value toward the sample with weight 1-exp(-dt/window).
type expAvg struct {
	v      float64
	primed bool
}

func (e *expAvg) observe(v, dt, window float64) {
	if !e.primed {
		e.v, e.primed = v, true
		return
	}
	e.v += (1 - math.Exp(-dt/window)) * (v - e.v)
}

// autoscaler is the runtime control loop.
type autoscaler struct {
	sys *System
	cfg AutoscaleConfig

	events []ScaleEvent
	// accounting for active GPU-seconds
	lastT      sim.Time
	activeGPUs int
	gpuSeconds float64

	// policy signal state
	lastStep    sim.Time
	occ, kv     expAvg
	ttftWin     *stats.Window
	tpotWin     *stats.Window
	metricsSeen int

	// telemetry (nil handles when off)
	telActive    *telemetry.Gauge
	telDecisions map[ScaleDecision]*telemetry.Counter

	// decision-ledger state (inactive when the system has no ledger)
	shadows     []ScalePolicy           // sorted by name; never drive the fleet
	regret      *decisions.RegretWindow // sliding shadow-regret accounting
	pending     *decisions.ScaleRecord  // last record, awaiting its outcome
	outcomeSeen int                     // metrics consumed for outcome windows
	telRecords  *telemetry.Counter
	telShadow   map[string]*telemetry.Counter // per-law disagreement counters
}

// startAutoscaler wires the config into the system: deactivates reserves,
// stamps initial idle state, and schedules the control loop.
func (s *System) startAutoscaler(cfg AutoscaleConfig) {
	cfg.setDefaults()
	a := &autoscaler{sys: s, cfg: cfg}
	s.scaler = a
	initial := cfg.InitialActive
	if initial <= 0 || initial > len(s.decode) {
		initial = len(s.decode)
	}
	now := s.eng.Now()
	for i, di := range s.decode {
		di.active = i < initial
		// Active instances start idle (nothing is running yet) with the
		// idle spell beginning now — sim time starts at 0, so idleness
		// must be an explicit flag, not a zero-timestamp sentinel.
		di.idle = di.active
		di.idleSince = now
		if di.active {
			a.activeGPUs += len(di.spec.GPUs())
		}
	}
	a.ttftWin = stats.NewWindow(latencyWindow)
	a.tpotWin = stats.NewWindow(latencyWindow)
	if s.tel != nil {
		a.telActive = s.tel.Metrics.Gauge("decode_active_instances",
			"Decode instances committed by the autoscaler (active + activating).", nil)
		a.telActive.Set(float64(a.countCommitted()))
		a.telDecisions = make(map[ScaleDecision]*telemetry.Counter)
		for _, d := range []ScaleDecision{ScaleHold, ScaleOut, ScaleIn} {
			a.telDecisions[d] = s.tel.Metrics.Counter("autoscale_decisions_total",
				"Scale-policy decisions by verdict, one per control step.",
				[]string{"decision"}, d.String())
		}
	}
	if s.ledger != nil {
		a.shadows = cfg.ShadowPolicies
		if a.shadows == nil {
			for _, name := range ScalePolicyNames {
				p, err := NewScalePolicy(name)
				if err == nil {
					a.shadows = append(a.shadows, p)
				}
			}
		}
		sort.SliceStable(a.shadows, func(i, j int) bool {
			return a.shadows[i].Name() < a.shadows[j].Name()
		})
		gpus := 0
		if len(s.decode) > 0 {
			gpus = len(s.decode[0].spec.GPUs())
		}
		meta := decisions.ScaleMeta{
			Fleet:           len(s.decode),
			InitialActive:   initial,
			MinActive:       minActive,
			Interval:        cfg.Interval,
			GPUsPerInstance: gpus,
			SLA:             s.opts.SLA != nil,
		}
		s.ledger.SetScaleMeta(meta)
		a.regret = decisions.NewRegretWindow(meta)
		if s.tel != nil {
			a.telRecords = s.tel.Metrics.Counter("decision_records_total",
				"Decision-ledger records appended, by kind.",
				[]string{"kind"}, decisions.KindScale)
			a.telShadow = make(map[string]*telemetry.Counter, len(a.shadows))
			for _, sp := range a.shadows {
				a.telShadow[sp.Name()] = s.tel.Metrics.Counter("autoscale_shadow_disagreements_total",
					"Control steps where a shadow law's verdict differed from the primary's.",
					[]string{"law"}, sp.Name())
			}
		}
	}
	a.lastT = now
	a.lastStep = now
	a.loop()
}

// charge accrues active GPU-seconds up to now.
func (a *autoscaler) charge() {
	now := a.sys.eng.Now()
	delta := float64(a.activeGPUs) * (now - a.lastT)
	a.gpuSeconds += delta
	a.sys.telGPUSeconds.Add(delta)
	a.lastT = now
}

// loop is the periodic control step. It rides daemon events and reschedules
// only while real work is queued, so the control loop never keeps a finished
// simulation alive (and cannot ping-pong forever with another periodic
// controller, each treating the other's tick as pending work).
func (a *autoscaler) loop() {
	a.step()
	if a.sys.eng.PendingWork() > 0 {
		a.sys.eng.PostAfterDaemon(a.cfg.Interval, a.loop)
	}
}

// step samples the fleet's signals, asks the policy for a decision, and
// applies it.
func (a *autoscaler) step() {
	now := a.sys.eng.Now()
	a.stampOutcome(now)
	sig := a.collect(now)
	dec := a.cfg.Policy.Decide(sig)
	a.telDecisions[dec].Inc()
	applied, instance := "none", -1
	switch dec {
	case ScaleOut:
		if di := a.firstReserve(); di != nil {
			a.activate(di)
			applied, instance = "activate", di.id
		}
	case ScaleIn:
		// The floor counts truly-active instances only: an activating
		// instance serves nothing yet, so deactivating concurrently with a
		// pending activation must not dip the serving fleet below minActive.
		if a.countActive() > minActive {
			if di := a.longestIdle(now); di != nil {
				a.deactivate(di)
				applied, instance = "deactivate", di.id
			}
		}
	}
	// The primary's batch advice applies after the fleet action; shadow laws'
	// advice never does.
	if adv, ok := a.cfg.Policy.(BatchAdvisor); ok {
		a.sys.setBatchTarget(adv.BatchTarget(sig))
	}
	a.record(now, &sig, dec, applied, instance)
	a.refreshIdle(now)
	a.lastStep = now
}

// record appends this step's ScaleRecord: the primary's verdict and applied
// action, the signal snapshot, and every shadow law's verdict on a private
// copy of the same signals. Shadows never touch the fleet; they only write
// the disagreement matrix.
func (a *autoscaler) record(now sim.Time, sig *ScaleSignals, dec ScaleDecision, applied string, instance int) {
	led := a.sys.ledger
	if led == nil {
		return
	}
	rec := decisions.ScaleRecord{
		T:        now,
		Primary:  a.cfg.Policy.Name(),
		Decision: dec.String(),
		Applied:  applied,
		Instance: instance,
		Signals: decisions.ScaleSignalsRec{
			Backlog:       sig.Backlog,
			Active:        sig.Active,
			Activating:    sig.Activating,
			Reserves:      sig.Reserves,
			Occupancy:     sig.Occupancy,
			KVUtilization: sig.KVUtilization,
			LongestIdle:   sig.LongestIdle,
			TTFT:          sig.TTFT,
			TPOT:          sig.TPOT,
			LatencyPrimed: sig.LatencyPrimed,
			ActiveAlerts:  firingRules(sig.Alerts),
			DominantStage: sig.DominantStage,
		},
	}
	if mp, ok := a.cfg.Policy.(MetaPolicy); ok {
		rec.Law = mp.ActiveLaw()
		if sw, ok := mp.TakeSwitch(); ok {
			rec.Switch = sw.From + "->" + sw.To
			rec.SwitchSignal = sw.Signal
		}
	}
	if bc := a.sys.batchCap(); bc > a.sys.opts.MaxDecodeBatch {
		rec.BatchTarget = bc
	}
	// Isolation: shadows get a value copy of the snapshot with a private SLA
	// each, plus slice views hoisted once per record, so even a law that
	// writes through sig.SLA or mutates the slices cannot perturb the run's
	// configuration or the primary's inputs.
	shDetail := append([]AlertSignal(nil), sig.Alerts...)
	shRegret := append([]decisions.LawRegret(nil), sig.LawRegret...)
	for _, sp := range a.shadows {
		shSig := *sig
		shSig.Alerts = shDetail
		shSig.LawRegret = shRegret
		if sig.SLA != nil {
			sla := *sig.SLA
			shSig.SLA = &sla
		}
		d := sp.Decide(shSig)
		rec.Shadows = append(rec.Shadows, decisions.ShadowDecision{
			Law: sp.Name(), Decision: d.String(),
		})
		if d != dec {
			rec.Disagree++
			a.telShadow[sp.Name()].Inc()
		}
	}
	a.pending = led.AddScale(rec)
	a.telRecords.Inc()
}

// stampOutcome closes the previous record's realized window: the requests
// completed since that decision, their SLA verdicts (SLA.Met, the
// Results.Attainment verdict), and their mean TTFT/TPOT. The metrics
// window is consumed only when a record is pending — completions landing in
// a ledger gap stay queued for the next stamped outcome instead of being
// silently dropped.
func (a *autoscaler) stampOutcome(now sim.Time) {
	if a.pending == nil {
		return
	}
	ms := a.sys.metrics[a.outcomeSeen:]
	a.outcomeSeen = len(a.sys.metrics)
	o := decisions.Outcome{Horizon: now - a.pending.T}
	var ttft, tpot float64
	sla := a.sys.opts.SLA
	for i := range ms {
		o.Completed++
		ttft += ms[i].TTFT
		tpot += ms[i].TPOT
		if sla == nil || sla.Met(ms[i].TTFT, ms[i].TPOT) {
			o.Met++
		}
	}
	if o.Completed > 0 {
		o.TTFT = ttft / float64(o.Completed)
		o.TPOT = tpot / float64(o.Completed)
	}
	a.pending.Outcome = &o
	a.regret.Observe(a.pending)
	a.pending = nil
}

// collect assembles the policy's signal snapshot at time now.
func (a *autoscaler) collect(now sim.Time) ScaleSignals {
	s := a.sys
	dt := now - a.lastStep
	active, activating, reserves, backlog := 0, 0, 0, 0
	running := 0
	kvSum := 0.0
	for _, di := range s.decode {
		backlog += di.pending.len()
		switch {
		case di.activating:
			activating++
		case di.active:
			active++
			running += len(di.running)
			if di.kvCap > 0 {
				kvSum += float64(di.kvUsed) / float64(di.kvCap)
			}
		default:
			reserves++
		}
	}
	if active > 0 {
		a.occ.observe(float64(running)/float64(active*s.opts.MaxDecodeBatch), dt, a.cfg.SignalWindow)
		a.kv.observe(kvSum/float64(active), dt, a.cfg.SignalWindow)
	}
	for _, m := range s.metrics[a.metricsSeen:] {
		a.ttftWin.Observe(m.TTFT)
		if m.TPOT > 0 {
			a.tpotWin.Observe(m.TPOT)
		}
	}
	a.metricsSeen = len(s.metrics)

	longest := 0.0
	for _, di := range s.decode {
		if a.deactivatable(di) && now-di.idleSince > longest {
			longest = now - di.idleSince
		}
	}
	firing, pending := s.mon.Firing(), s.mon.Pending()
	dom, domShare := s.shares.Dominant()
	return ScaleSignals{
		Now:           now,
		Backlog:       backlog,
		Active:        active,
		Activating:    activating,
		Reserves:      reserves,
		MinActive:     minActive,
		MaxBatch:      s.opts.MaxDecodeBatch,
		Occupancy:     a.occ.v,
		KVUtilization: a.kv.v,
		LongestIdle:   longest,
		TTFT:          a.ttftWin.Mean(),
		TPOT:          a.tpotWin.Mean(),
		LatencyPrimed: a.ttftWin.Len() > 0,
		SLA:           s.opts.SLA,
		Alerts:        alertSignals(firing, pending),
		DominantStage: dom,
		DominantShare: domShare,
		LawRegret:     a.regret.Regret(),
	}
}

// firingRules lists the firing alerts' rule names, in the monitor's order
// (sorted). Nil when nothing fires (or no monitor is armed).
func firingRules(alerts []AlertSignal) []string {
	var names []string
	for _, al := range alerts {
		if al.Firing {
			names = append(names, al.Rule)
		}
	}
	return names
}

// alertSignals converts the monitor's live alerts into the policy-facing
// view: firing alerts first, then pending, each group sorted by rule name.
// A firing alert's Dominant is its cause snapshot's dominant stage. Nil when
// nothing is live (or no monitor is armed).
func alertSignals(firing, pending []slo.Alert) []AlertSignal {
	if len(firing) == 0 && len(pending) == 0 {
		return nil
	}
	out := make([]AlertSignal, 0, len(firing)+len(pending))
	for _, al := range firing {
		sig := AlertSignal{Rule: al.Rule, Kind: al.Kind, Firing: true}
		if al.Cause != nil {
			sig.Dominant = al.Cause.Dominant
		}
		out = append(out, sig)
	}
	for _, al := range pending {
		out = append(out, AlertSignal{Rule: al.Rule, Kind: al.Kind})
	}
	return out
}

// deactivatable reports whether the instance is a scale-in candidate: truly
// active, fully drained, and marked idle.
func (a *autoscaler) deactivatable(di *decodeInstance) bool {
	return di.active && !di.activating && di.idle &&
		len(di.running) == 0 && di.pending.len() == 0 && di.inflightKV == 0
}

// firstReserve returns the lowest-id deactivated instance, or nil.
func (a *autoscaler) firstReserve() *decodeInstance {
	for _, di := range a.sys.decode {
		if !di.active && !di.activating {
			return di
		}
	}
	return nil
}

// longestIdle returns the deactivation candidate with the longest idle
// spell (lowest id on ties), or nil.
func (a *autoscaler) longestIdle(now sim.Time) *decodeInstance {
	var best *decodeInstance
	for _, di := range a.sys.decode {
		if !a.deactivatable(di) {
			continue
		}
		if best == nil || now-di.idleSince > now-best.idleSince {
			best = di
		}
	}
	return best
}

// refreshIdle re-stamps each instance's idle state after the step's actions.
func (a *autoscaler) refreshIdle(now sim.Time) {
	for _, di := range a.sys.decode {
		if di.active && !di.activating &&
			len(di.running) == 0 && di.pending.len() == 0 && di.inflightKV == 0 {
			if !di.idle {
				di.idle = true
				di.idleSince = now
			}
		} else {
			di.idle = false
		}
	}
}

// activate begins loading an instance's weights. The instance is a
// KV-routing target at once, so hand-offs can land while its weights load,
// but it decodes only once ready.
func (a *autoscaler) activate(di *decodeInstance) {
	s := a.sys
	di.activating = true
	di.idle = false
	weight := s.dep.Model.WeightBytesPerGPU(di.spec.Ptens(), di.spec.Ppipe())
	delay := float64(weight) / weightLoadBW // per-GPU loads run in parallel
	a.emit(ScaleEvent{T: s.eng.Now(), Active: a.countCommitted(), Action: "activate", ID: di.id})
	s.eng.PostAfter(delay, func() {
		a.charge()
		di.activating = false
		di.active = true
		di.idle = false
		a.activeGPUs += len(di.spec.GPUs())
		a.emit(ScaleEvent{T: s.eng.Now(), Active: a.countCommitted(), Action: "ready", ID: di.id})
		s.admitDecode(di)
		s.maybeIterate(di)
	})
}

// deactivate returns an idle instance to the reserve pool.
func (a *autoscaler) deactivate(di *decodeInstance) {
	a.charge()
	di.active = false
	di.idle = false
	a.activeGPUs -= len(di.spec.GPUs())
	a.emit(ScaleEvent{T: a.sys.eng.Now(), Active: a.countCommitted(), Action: "deactivate", ID: di.id})
}

// emit records a transition in the event log and telemetry.
func (a *autoscaler) emit(ev ScaleEvent) {
	a.events = append(a.events, ev)
	a.telActive.Set(float64(ev.Active))
	a.sys.scaleInstant(ev)
}

// countActive counts truly-active instances (serving traffic now).
func (a *autoscaler) countActive() int {
	n := 0
	for _, di := range a.sys.decode {
		if di.active {
			n++
		}
	}
	return n
}

// countCommitted counts active plus activating instances — the fleet size
// the controller has committed to.
func (a *autoscaler) countCommitted() int {
	n := 0
	for _, di := range a.sys.decode {
		if di.active || di.activating {
			n++
		}
	}
	return n
}

// finish closes the accounting at simulation end: the GPU-second ledger and
// the last decision's realized-outcome window.
func (a *autoscaler) finish() {
	a.charge()
	a.stampOutcome(a.sys.eng.Now())
}

func (a *autoscaler) String() string {
	return fmt.Sprintf("autoscaler(%s, %d events, %.0f GPU-seconds)",
		a.cfg.Policy.Name(), len(a.events), a.gpuSeconds)
}
