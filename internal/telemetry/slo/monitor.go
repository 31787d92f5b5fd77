package slo

import (
	"io"
	"sort"

	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/critpath"
)

// Config arms a Monitor.
type Config struct {
	// Rules is the declarative rule set; see DefaultRules.
	Rules []Rule
	// Every is the evaluation cadence in sim-seconds (default 1).
	Every float64
}

// Registry series the monitor reads. These are the names internal/serving
// registers; the E2E stage family (telemetry.E2ECritPathFamily) and the
// fault-stall stage label (critpath.StageFaultStall) are read under their
// owners' names. The monitor is a pure registry consumer, so it needs no
// hooks into either.
const (
	seriesAdmitted  = "serving_requests_admitted_total"
	seriesCompleted = "serving_requests_completed_total"
	seriesSLA       = "sla_requests_total"
	seriesTTFT      = "ttft_seconds"
	seriesTPOT      = "tpot_seconds"
	seriesKVUtil    = "decode_kv_utilization"
)

// pair is one cumulative (errors, total) measurement for a burn-rate rule.
type pair struct{ bad, total float64 }

// frame is one evaluation tick's sample of everything the rules read:
// cumulative counters (windows are deltas between frames) plus the
// instantaneous in-flight depth and peak KV utilization.
type frame struct {
	t        float64
	vals     []pair // indexed by rule position; zero for non-burn-rate rules
	stages   map[string]float64
	inflight float64
	kvMax    float64
}

// evalResult is one rule's verdict at one tick.
type evalResult struct {
	breached bool
	value    float64
	vals     []CauseValue
	baseline string // stage-shift only: the baseline dominant stage
}

// Monitor evaluates SLO rules against a hub's live registry at a fixed
// sim-time cadence. It is owned by the simulation goroutine; the serving
// layer drives Step from a daemon event so evaluation never keeps a
// finished run alive, and Finish stamps the end of the run.
type Monitor struct {
	hub   *telemetry.Hub
	cfg   Config
	rules []Rule

	base   frame // run-start baseline, never evicted
	frames []frame
	maxWin float64
	primed bool
	lastT  float64
	alerts []*Alert
	active map[string]*Alert // pending or firing, by rule name

	trans   map[string]*telemetry.Counter // alerts_total{rule,state}
	activeG map[string]*telemetry.Gauge   // alert_active{rule}
}

// NewMonitor arms a monitor on the hub. The alert metric families are
// registered up front — every rule's alert_active gauge and all three
// lifecycle counters — so the exposition's shape is identical between
// healthy and degraded runs. Returns nil on a nil hub or empty rule set.
func NewMonitor(h *telemetry.Hub, cfg Config) *Monitor {
	if h == nil || len(cfg.Rules) == 0 {
		return nil
	}
	if cfg.Every <= 0 {
		cfg.Every = 1
	}
	m := &Monitor{
		hub:     h,
		cfg:     cfg,
		rules:   append([]Rule(nil), cfg.Rules...),
		active:  make(map[string]*Alert),
		trans:   make(map[string]*telemetry.Counter),
		activeG: make(map[string]*telemetry.Gauge),
	}
	for i := range m.rules {
		r := &m.rules[i]
		for _, w := range []float64{r.Fast.Seconds, r.Slow.Seconds, r.Over, r.causeWindow()} {
			if w > m.maxWin {
				m.maxWin = w
			}
		}
		for _, st := range []State{StatePending, StateFiring, StateResolved} {
			m.trans[r.Name+"\x00"+string(st)] = h.Metrics.Counter("alerts_total",
				"SLO alert lifecycle transitions, by rule and entered state.",
				[]string{"rule", "state"}, r.Name, string(st))
		}
		g := h.Metrics.Gauge("alert_active",
			"Whether the rule's alert is currently firing (1) or not (0).",
			[]string{"rule"}, r.Name)
		g.Set(0)
		m.activeG[r.Name] = g
	}
	return m
}

// Interval returns the evaluation cadence in sim-seconds.
func (m *Monitor) Interval() float64 {
	if m == nil {
		return 1
	}
	return m.cfg.Every
}

// Firing returns the firing alerts, sorted by rule name. Nil-safe; the
// slice is the caller's to keep. The control loops read it on the
// simulation goroutine, between evaluation ticks.
func (m *Monitor) Firing() []Alert { return m.live(StateFiring) }

// Pending returns the breached-but-not-yet-firing alerts (inside their For
// hold-down), sorted by rule name. Nil-safe; the slice is the caller's to
// keep.
func (m *Monitor) Pending() []Alert { return m.live(StatePending) }

// live copies the live alerts in state st, sorted by rule name.
func (m *Monitor) live(st State) []Alert {
	if m == nil {
		return nil
	}
	var out []Alert
	for _, a := range m.active {
		if a.State == st {
			out = append(out, *a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rule < out[j].Rule })
	return out
}

// Prime records the run-start baseline frame without evaluating any rule.
// Call it at the start of the run; on a hub shared by many runs (heroserve's
// experiments) the registry's counters carry earlier runs' totals, and the
// baseline is what keeps every window delta scoped to this run.
func (m *Monitor) Prime(now float64) {
	if m == nil || m.primed {
		return
	}
	m.base = m.sample(now)
	m.frames = append(m.frames[:0], m.base)
	m.primed = true
	m.lastT = now
}

// Step samples the registry and evaluates every rule at sim-time now.
// Re-stepping at the same time is idempotent.
func (m *Monitor) Step(now float64) {
	if m == nil {
		return
	}
	if !m.primed {
		m.Prime(now)
	}
	cur := m.sample(now)
	if n := len(m.frames); n > 0 && m.frames[n-1].t == now {
		m.frames[n-1] = cur
	} else {
		m.frames = append(m.frames, cur)
	}
	// Retention: keep exactly one frame at or before the oldest window edge.
	for len(m.frames) > 2 && m.frames[1].t <= now-m.maxWin {
		m.frames = m.frames[1:]
	}
	m.lastT = now
	for i := range m.rules {
		m.evalRule(i, &m.rules[i], cur)
	}
}

// Finish runs a final evaluation at the run's end time. Alerts still firing
// stay firing — the log records them with ResolvedAt unset and the summary
// counts them as firing at end.
func (m *Monitor) Finish(now float64) {
	if m == nil {
		return
	}
	m.Step(now)
}

// Log returns a value snapshot of the alert log; safe to serialize while
// the run continues.
func (m *Monitor) Log() *Log {
	if m == nil {
		return &Log{}
	}
	l := &Log{Meta: Meta{
		Rules: append([]Rule(nil), m.rules...),
		Every: m.cfg.Every,
		End:   m.lastT,
	}}
	for _, a := range m.alerts {
		l.Alerts = append(l.Alerts, *a)
	}
	return l
}

// WriteLog serializes the current log as JSON.
func (m *Monitor) WriteLog(w io.Writer) error { return m.Log().WriteJSON(w) }

// Summarize rolls the current log up.
func (m *Monitor) Summarize() *Summary { return m.Log().Summarize() }

// sample reads one frame off the registry. Reads only — the monitor never
// mutates the series it watches.
func (m *Monitor) sample(now float64) frame {
	reg := m.hub.Metrics
	f := frame{t: now, vals: make([]pair, len(m.rules))}
	adm, _ := reg.Value(seriesAdmitted)
	comp, _ := reg.Value(seriesCompleted)
	f.inflight = adm - comp
	met, _ := reg.Value(seriesSLA, "met")
	missed, _ := reg.Value(seriesSLA, "missed")
	for i := range m.rules {
		r := &m.rules[i]
		if r.Kind != KindBurnRate {
			continue
		}
		switch r.Objective {
		case ObjAttainment:
			f.vals[i] = pair{bad: missed, total: met + missed}
		case ObjTTFT:
			if over, _, ok := reg.HistogramOver(seriesTTFT, r.Bound); ok {
				n, _ := reg.HistogramCount(seriesTTFT)
				f.vals[i] = pair{bad: float64(over), total: float64(n)}
			}
		case ObjTPOT:
			if over, _, ok := reg.HistogramOver(seriesTPOT, r.Bound); ok {
				n, _ := reg.HistogramCount(seriesTPOT)
				f.vals[i] = pair{bad: float64(over), total: float64(n)}
			}
		}
	}
	for _, lv := range reg.Children(telemetry.E2ECritPathFamily) {
		if len(lv) != 1 {
			continue
		}
		if v, ok := reg.Value(telemetry.E2ECritPathFamily, lv[0]); ok {
			if f.stages == nil {
				f.stages = make(map[string]float64)
			}
			f.stages[lv[0]] = v
		}
	}
	for _, lv := range reg.Children(seriesKVUtil) {
		if v, ok := reg.Value(seriesKVUtil, lv...); ok && v > f.kvMax {
			f.kvMax = v
		}
	}
	return f
}

// frameAt returns the latest frame at or before t (the oldest retained
// frame when t predates them all).
func (m *Monitor) frameAt(t float64) frame {
	for i := len(m.frames) - 1; i > 0; i-- {
		if m.frames[i].t <= t {
			return m.frames[i]
		}
	}
	return m.frames[0]
}

// evalRule advances one rule's lifecycle at the tick captured in cur.
func (m *Monitor) evalRule(idx int, r *Rule, cur frame) {
	res := m.measure(idx, r, cur)
	a := m.active[r.Name]
	if res.breached {
		if a == nil {
			a = &Alert{
				Rule: r.Name, Kind: r.Kind, Severity: r.Severity,
				State: StatePending, Since: cur.t, FiredAt: -1, ResolvedAt: -1,
				Value: telemetry.JSONFloat(res.value),
			}
			m.active[r.Name] = a
			m.alerts = append(m.alerts, a)
			m.transition(r, a, cur.t, res.value, StatePending)
		}
		if a.State == StatePending && cur.t-a.Since >= r.For {
			a.State = StateFiring
			a.FiredAt = cur.t
			a.Value = telemetry.JSONFloat(res.value)
			a.Cause = m.cause(r, cur, res)
			m.transition(r, a, cur.t, res.value, StateFiring)
		}
		return
	}
	if a == nil {
		return
	}
	a.State = StateResolved
	a.ResolvedAt = cur.t
	delete(m.active, r.Name)
	m.transition(r, a, cur.t, res.value, StateResolved)
}

// transition records a lifecycle change: counters, the active gauge and a
// Perfetto instant for firing/resolution.
func (m *Monitor) transition(r *Rule, a *Alert, t, value float64, st State) {
	m.trans[r.Name+"\x00"+string(st)].Inc()
	switch st {
	case StateFiring:
		m.activeG[r.Name].Set(1)
		m.hub.Trace.InstantAt(t, telemetry.ControlTID, "slo", "alert-firing", telemetry.Args{
			telemetry.Str("rule", r.Name), telemetry.Str("severity", r.Severity.String()), telemetry.Float("value", value),
		})
	case StateResolved:
		if a.FiredAt >= 0 {
			m.activeG[r.Name].Set(0)
			m.hub.Trace.InstantAt(t, telemetry.ControlTID, "slo", "alert-resolved", telemetry.Args{
				telemetry.Float("firing_seconds", t-a.FiredAt), telemetry.Str("rule", r.Name), telemetry.Str("severity", r.Severity.String()),
			})
		}
	}
}

// cv builds one cause value.
func cv(name string, v float64) CauseValue {
	return CauseValue{Name: name, Value: telemetry.JSONFloat(v)}
}

// measure evaluates one rule's condition at the tick captured in cur.
func (m *Monitor) measure(idx int, r *Rule, cur frame) evalResult {
	switch r.Kind {
	case KindBurnRate:
		budget := 1 - r.Target
		errFast, nFast := errRate(cur.vals[idx], m.frameAt(cur.t - r.Fast.Seconds).vals[idx])
		errSlow, nSlow := errRate(cur.vals[idx], m.frameAt(cur.t - r.Slow.Seconds).vals[idx])
		burnFast, burnSlow := errFast/budget, errSlow/budget
		return evalResult{
			breached: nFast > 0 && nSlow > 0 && burnFast >= r.Fast.Burn && burnSlow >= r.Slow.Burn,
			value:    burnFast,
			vals: []CauseValue{
				cv("burn_fast", burnFast), cv("burn_slow", burnSlow),
				cv("err_fast", errFast), cv("err_slow", errSlow),
				cv("requests_fast", nFast), cv("requests_slow", nSlow),
				cv("budget", budget),
			},
		}
	case KindStageShift:
		prev := m.frameAt(cur.t - r.Over)
		win, winTotal := stageDelta(cur.stages, prev.stages)
		base, baseTotal := stageDelta(prev.stages, m.base.stages)
		domWin, massWin := dominantStage(win)
		domBase, _ := dominantStage(base)
		share := 0.0
		if winTotal > 0 {
			share = massWin / winTotal
		}
		return evalResult{
			breached: winTotal >= r.MinMass && baseTotal >= r.MinMass &&
				domWin != "" && domBase != "" && domWin != domBase,
			value:    share,
			baseline: domBase,
			vals: []CauseValue{
				cv("window_mass", winTotal), cv("baseline_mass", baseTotal),
				cv("dominant_share", share),
			},
		}
	case KindFaultBudget:
		prev := m.frameAt(cur.t - r.Over)
		win, total := stageDelta(cur.stages, prev.stages)
		fault := win[critpath.StageFaultStall]
		share := 0.0
		if total > 0 {
			share = fault / total
		}
		return evalResult{
			breached: total >= r.MinMass && share >= r.Threshold,
			value:    share,
			vals: []CauseValue{
				cv("fault_seconds", fault), cv("window_mass", total), cv("fault_share", share),
			},
		}
	case KindQueueGrowth:
		prev := m.frameAt(cur.t - r.Over)
		dt := cur.t - prev.t
		if dt <= 0 {
			return evalResult{}
		}
		slope := (cur.inflight - prev.inflight) / dt
		return evalResult{
			breached: cur.inflight >= r.MinMass && slope >= r.Threshold,
			value:    slope,
			vals: []CauseValue{
				cv("inflight", cur.inflight), cv("slope_per_second", slope),
				cv("window_seconds", dt),
			},
		}
	case KindKVSaturation:
		return evalResult{
			breached: cur.kvMax >= r.Threshold,
			value:    cur.kvMax,
			vals:     []CauseValue{cv("kv_utilization_max", cur.kvMax)},
		}
	}
	return evalResult{}
}

// cause builds the firing snapshot: the rule's inputs (sorted by name) plus
// the top critical-path offenders over the rule's cause window.
func (m *Monitor) cause(r *Rule, cur frame, res evalResult) *Cause {
	c := &Cause{Values: append([]CauseValue(nil), res.vals...), Baseline: res.baseline}
	sort.Slice(c.Values, func(i, j int) bool { return c.Values[i].Name < c.Values[j].Name })
	prev := m.frameAt(cur.t - r.causeWindow())
	win, total := stageDelta(cur.stages, prev.stages)
	if total <= 0 {
		return c
	}
	type entry struct {
		s string
		v float64
	}
	entries := make([]entry, 0, len(win))
	for s, v := range win {
		entries = append(entries, entry{s, v})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].v != entries[j].v {
			return entries[i].v > entries[j].v
		}
		return entries[i].s < entries[j].s
	})
	const topN = 5
	for i, e := range entries {
		if i >= topN {
			break
		}
		c.Stages = append(c.Stages, StageShare{Stage: e.s, Seconds: telemetry.JSONFloat(e.v), Share: telemetry.JSONFloat(e.v / total)})
	}
	c.Dominant = entries[0].s
	return c
}

// errRate is the error fraction and sample mass of a window delta.
func errRate(cur, prev pair) (rate, n float64) {
	db, dn := cur.bad-prev.bad, cur.total-prev.total
	if dn <= 0 {
		return 0, 0
	}
	return db / dn, dn
}

// stageDelta subtracts two cumulative stage maps, keeping positive deltas.
// The total accumulates in sorted key order: float addition is not
// associative, so summing in map-iteration order would let the same run
// produce last-ULP-different shares from one process to the next.
func stageDelta(cur, prev map[string]float64) (map[string]float64, float64) {
	names := telemetry.SortedKeys(cur)
	out := make(map[string]float64, len(cur))
	var total float64
	for _, s := range names {
		if d := cur[s] - prev[s]; d > 1e-12 {
			out[s] = d
			total += d
		}
	}
	return out, total
}

// dominantStage returns the heaviest stage (ties broken by name, so the
// result is deterministic despite map iteration).
func dominantStage(stages map[string]float64) (string, float64) {
	names := telemetry.SortedKeys(stages)
	best, bv := "", 0.0
	for _, s := range names {
		if stages[s] > bv {
			best, bv = s, stages[s]
		}
	}
	return best, bv
}
