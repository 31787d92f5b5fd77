// Package core is HeroServe itself: the façade that wires the
// scalability-oriented offline planner (internal/planner), the load-aware
// online scheduler (internal/scheduler), and the heterogeneous collectives
// (internal/collective) into a runnable serving system. This is the package
// examples and experiments use as "the system under test".
package core

import (
	"fmt"
	"math"
	"strings"

	"heroserve/internal/collective"
	"heroserve/internal/faults"
	"heroserve/internal/netsim"
	"heroserve/internal/planner"
	"heroserve/internal/scheduler"
	"heroserve/internal/serving"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/critpath"
	"heroserve/internal/telemetry/decisions"
	"heroserve/internal/topology"
)

// ControllerInterval is the period of the central controller's telemetry
// refresh loop (the paper's gRPC control-plane update loop, §IV).
const ControllerInterval = 0.05

// maxSwitchCandidates bounds the INA switch alternatives per policy table.
// One (the nearest) mirrors the paper's Fig. 5 table — a curated {INA, ring}
// pair per group — and avoids flapping onto far aggregation points whose
// longer paths the utilization-ratio cost J cannot see.
const maxSwitchCandidates = 1

// Stage-share feedback (the observe→act loop on the collective side): when
// the critical-path attribution says one stage dominates recent TTFT, the
// online policy nudges — not overrides — the Eq. 16 comparison.
const (
	// stageBiasShare is the minimum dominant TTFT share before any bias
	// applies; below it the attribution is too mixed to act on.
	stageBiasShare = 0.5
	// stageINADiscount multiplies the J of INA candidates when an
	// allreduce-<scheme> stage dominates TTFT: communication is the
	// bottleneck, so lean toward in-network aggregation.
	stageINADiscount = 0.85
	// stageHoldDiscount multiplies the J of the group's previous pick when
	// the queue stage dominates: the bottleneck is upstream of the
	// collective, so hold scheme churn and let the autoscaler act.
	stageHoldDiscount = 0.9
)

// OnlinePolicy is HeroServe's communication policy: per tensor-parallel
// group it lazily builds a policy cost table (ring, Ethernet INA, and
// heterogeneous INA candidates over the nearest switches), selects the
// cheapest policy per all-reduce (Eq. 16), applies the synchronized cost
// updates (Eq. 17), and lets the central controller refresh costs and
// penalties from live telemetry (Eq. 18).
type OnlinePolicy struct {
	cfg    scheduler.Config
	tables map[serving.GroupID]*scheduler.Table
	ctl    *scheduler.Controller
	// Hetero can be disabled for ablations (Ethernet-only online choice).
	Hetero bool
	// Injector, when non-nil, is the run's fault injector: the lazily created
	// controller registers with it as a Staller (GPU-agent stall faults skip
	// its refresh rounds) and consults switch health during refresh. Set by
	// core.NewSystem; harmless to leave nil on fault-free runs.
	Injector *faults.Injector
	// Ledger, when non-nil, receives one CollectiveRecord per policy pick:
	// the full candidate cost vector Eq. 16 minimized, the chosen and
	// executed rows, and the execution regret. Set by core.NewSystem from
	// the serving system's decision ledger.
	Ledger *decisions.Ledger
	// Shares, when non-nil, is the live TTFT stage-share tracker fed by the
	// critical-path analyzer. When a stage dominates recent attribution the
	// policy biases the Eq. 16 comparison (see stageBias). Set by
	// core.NewSystem when telemetry is armed; nil-safe.
	Shares *critpath.ShareTracker
	// lastPick remembers each group's previous chosen table row so the
	// queue-dominant churn hold knows which candidate to favor.
	lastPick map[serving.GroupID]int
}

// NewOnlinePolicy returns the policy with the given scheduler config.
func NewOnlinePolicy(cfg scheduler.Config) *OnlinePolicy {
	return &OnlinePolicy{
		cfg:      cfg,
		tables:   make(map[serving.GroupID]*scheduler.Table),
		Hetero:   true,
		lastPick: make(map[serving.GroupID]int),
	}
}

// Name implements serving.CommPolicy.
func (p *OnlinePolicy) Name() string { return "HeroServe" }

// Tables returns the number of group tables instantiated (telemetry).
func (p *OnlinePolicy) Tables() int { return len(p.tables) }

// SchemeSelections aggregates, per scheme, how many times any table selected
// a policy of that scheme.
func (p *OnlinePolicy) SchemeSelections() map[collective.Scheme]int64 {
	out := make(map[collective.Scheme]int64)
	for _, t := range p.tables {
		sels := t.Selections()
		for i, n := range sels {
			out[t.Policies[i].Scheme] += n
		}
	}
	return out
}

// table lazily builds the group's policy table and attaches it to the
// controller, creating (and starting) the controller on first use.
func (p *OnlinePolicy) table(ctx *serving.GroupCtx, msgBytes int64) *scheduler.Table {
	if t, ok := p.tables[ctx.ID]; ok {
		return t
	}
	g := ctx.Comm.Network().Graph()
	policies := scheduler.BuildPolicies(g, ctx.Comm.Router(), ctx.Group, msgBytes, maxSwitchCandidates, p.Hetero)
	if len(policies) == 0 {
		// Unroutable ring would have paniced earlier in planning; synthesize
		// a ring policy with no edges as a last resort.
		policies = []scheduler.Policy{{Scheme: collective.SchemeRing, Switch: -1, Label: "ring"}}
	}
	t := scheduler.NewTable(g, ctx.Group, policies, p.cfg)
	p.tables[ctx.ID] = t
	if p.ctl == nil {
		p.ctl = scheduler.NewController(ctx.Comm.Network(), ControllerInterval)
		comm := ctx.Comm
		p.ctl.BindSwitchHealth(func(sw topology.NodeID) bool {
			ds := comm.Switch(sw)
			// Only fault conditions (offline, slots seized by a competing
			// tenant) mark a switch unhealthy; organic full occupancy is
			// normal load and already priced by the slot-fallback path.
			return ds != nil && ds.Online() && ds.PoolSize() > ds.SeizedSlots()
		})
		if p.Injector != nil {
			p.Injector.RegisterStaller(p.ctl)
		}
		p.ctl.SetTelemetry(ctx.Comm.Telemetry())
	}
	p.ctl.Register(t)
	p.ctl.Start()
	return t
}

// AllReduce implements serving.CommPolicy.
func (p *OnlinePolicy) AllReduce(ctx *serving.GroupCtx, msgBytes int64, steps int, done func()) {
	t := p.table(ctx, msgBytes)
	bias, stageSignal := p.stageBias(ctx, t)
	idx, swayed := t.SelectBiased(msgBytes*int64(steps), bias)
	p.lastPick[ctx.ID] = idx
	pol := t.Policies[idx]
	sw := pol.Switch
	scheme := pol.Scheme
	reason := "table"
	if swayed {
		// The stage bias changed the argmin's winner; name the feedback that
		// did it. The biased J vector is what the ledger records, so the
		// Best==Chosen invariant (zero execution regret) still holds.
		if strings.HasPrefix(stageSignal, critpath.StageAllReduce("")) {
			reason = "stage-ina"
		} else {
			reason = "stage-hold"
		}
	}
	exec := idx
	if scheme.UsesINA() && (sw < 0 || !p.policyAlive(ctx.Comm, &pol)) {
		// Local data-plane guard: the GPU agent observes its own timeouts
		// (a blacked-out link on the policy's path, an offline or slot-starved
		// switch) without waiting for the next control-plane sync — crucial
		// when a fault coincides with an agent stall that froze the tables.
		scheme = collective.SchemeRing
		sw = -1
		reason = "guard-fallback"
		exec = ringIndex(t, idx)
	}
	p.audit(ctx, t, idx, exec, scheme, reason, stageSignal, msgBytes, steps)
	ctx.Comm.AllReduceTagged(scheme, ctx.Group, sw, msgBytes, steps, ctx.Reqs, done)
}

// stageBias translates the dominant TTFT stage into a multiplicative bias
// over the group's candidate J values, or nil when attribution is absent,
// mixed, or names a stage the collective policy cannot act on. An
// allreduce-<scheme> dominant discounts every INA candidate; a queue
// dominant discounts the group's previous pick (churn hold — the fix
// belongs to the autoscaler, which sees the same dominant via its signals).
func (p *OnlinePolicy) stageBias(ctx *serving.GroupCtx, t *scheduler.Table) ([]float64, string) {
	dom, share := p.Shares.Dominant()
	if dom == "" || share < stageBiasShare {
		return nil, ""
	}
	switch {
	case strings.HasPrefix(dom, critpath.StageAllReduce("")):
		bias := make([]float64, len(t.Policies))
		any := false
		for i := range t.Policies {
			if t.Policies[i].Scheme.UsesINA() {
				bias[i] = stageINADiscount
				any = true
			} else {
				bias[i] = 1
			}
		}
		if !any {
			return nil, ""
		}
		return bias, dom
	case dom == critpath.StageQueue:
		last, ok := p.lastPick[ctx.ID]
		if !ok || last < 0 || last >= len(t.Policies) {
			return nil, ""
		}
		bias := make([]float64, len(t.Policies))
		for i := range bias {
			bias[i] = 1
		}
		bias[last] = stageHoldDiscount
		return bias, dom
	}
	return nil, ""
}

// ringIndex locates the table row the guard fallback executes (the ring
// policy); when the table has none the chosen row is kept so the ledger's
// Actual still points at a real candidate.
func ringIndex(t *scheduler.Table, chosen int) int {
	for i := range t.Policies {
		if t.Policies[i].Scheme == collective.SchemeRing {
			return i
		}
	}
	return chosen
}

// audit publishes the decision record of one policy pick: the
// collective_scheme_total{scheme,reason} counter, the ledger's
// CollectiveRecord with the full counterfactual cost vector plus the
// per-scheme regret counters (policy_regret_seconds_total{scheme}), and a
// policy-select trace instant carrying the winning policy, the executed
// scheme, and the cost-table snapshot (the paper's Fig. 5 state at decision
// time). chosen/exec index the table's policies; they differ only under
// guard fallback.
func (p *OnlinePolicy) audit(ctx *serving.GroupCtx, t *scheduler.Table, chosen, exec int, scheme collective.Scheme, reason, stageSignal string, msgBytes int64, steps int) {
	tel := ctx.Comm.Telemetry()
	pol := &t.Policies[chosen]
	if p.Ledger != nil || tel != nil {
		p.ledger(ctx, t, chosen, exec, scheme, reason, stageSignal, msgBytes, steps, tel)
	}
	if tel == nil {
		return
	}
	tel.Metrics.Counter("collective_scheme_total",
		"Online policy picks by executed scheme and decision reason.",
		[]string{"scheme", "reason"}, scheme.String(), reason).Inc()
	costs := make(map[string]any, len(t.Policies))
	for i, c := range t.Costs() {
		costs[t.Policies[i].Label] = telemetry.Float(c)
	}
	args := map[string]any{
		"group":   fmt.Sprintf("%s/%d/%d", ctx.ID.Role, ctx.ID.Instance, ctx.ID.Stage),
		"policy":  pol.Label,
		"scheme":  scheme.String(),
		"reason":  reason,
		"bytes":   msgBytes * int64(steps),
		"stalled": p.ctl.Stalled(),
		"costs":   costs,
	}
	if len(ctx.Reqs) > 0 {
		args["reqs"] = ctx.Reqs
	}
	tel.Trace.Instant(telemetry.ControlTID, "sched", "policy-select", args)
}

// ledger materializes the counterfactual record of one pick. The candidate
// costs come from Table.LastEval — the exact J(c, D) floats the argmin
// compared, captured before the synchronized cost update — so the chosen
// row's counterfactual cost equals the audited cost bit for bit. Regret is
// expressed in estimated bottleneck busy-seconds (J x T_u); the per-scheme
// counters accumulate each scheme's cheapest candidate against the overall
// optimum, i.e. the cost of always forcing that scheme.
func (p *OnlinePolicy) ledger(ctx *serving.GroupCtx, t *scheduler.Table, chosen, exec int, scheme collective.Scheme, reason, stageSignal string, msgBytes int64, steps int, tel *telemetry.Hub) {
	eval := t.LastEval()
	if eval == nil {
		return
	}
	w := t.Window()
	cands := make([]decisions.CollectiveCandidate, len(t.Policies))
	best := 0
	for i := range t.Policies {
		j := eval[i]
		cands[i] = decisions.CollectiveCandidate{
			Label:       t.Policies[i].Label,
			Scheme:      t.Policies[i].Scheme.String(),
			CostJ:       telemetry.JSONFloat(j),
			CostSeconds: telemetry.JSONFloat(j * w),
		}
		if j < eval[best] {
			best = i
		}
	}
	actual := float64(cands[exec].CostSeconds)
	regret := actual - float64(cands[best].CostSeconds)
	if regret != regret { // Inf - Inf
		regret = 0
	}
	if p.Ledger != nil {
		p.Ledger.AddCollective(decisions.CollectiveRecord{
			T:           ctx.Comm.Network().Engine().Now(),
			Group:       fmt.Sprintf("%s/%d/%d", ctx.ID.Role, ctx.ID.Instance, ctx.ID.Stage),
			Bytes:       msgBytes * int64(steps),
			Steps:       steps,
			Candidates:  cands,
			Chosen:      chosen,
			Best:        best,
			Executed:    exec,
			Scheme:      scheme.String(),
			Reason:      reason,
			StageSignal: stageSignal,
			Actual:      telemetry.JSONFloat(actual),
			Regret:      telemetry.JSONFloat(regret),
			Stalled:     p.ctl.Stalled(),
		})
	}
	if tel == nil {
		return
	}
	tel.Metrics.Counter("decision_records_total",
		"Decision-ledger records appended, by kind.",
		[]string{"kind"}, decisions.KindCollective).Inc()
	// Per-scheme counterfactual regret: for each scheme present in the
	// table, its cheapest candidate versus the overall optimum. The winning
	// scheme contributes exactly zero; +Inf-priced (faulted) schemes are
	// skipped so the totals stay finite.
	bestJ := float64(cands[best].CostSeconds)
	if math.IsInf(bestJ, 0) {
		return
	}
	perScheme := make(map[string]float64, 4)
	for _, c := range cands {
		j := float64(c.CostSeconds)
		if cur, ok := perScheme[c.Scheme]; !ok || j < cur {
			perScheme[c.Scheme] = j
		}
	}
	for name, j := range perScheme {
		if math.IsInf(j, 0) {
			continue
		}
		tel.Metrics.Counter("policy_regret_seconds_total",
			"Counterfactual regret of always forcing a scheme, in estimated bottleneck busy-seconds.",
			[]string{"scheme"}, name).Add(j - bestJ)
	}
}

// policyAlive reports whether an INA policy's data plane is free of fault
// conditions: its aggregation switch is online with slots not seized by
// faults, and none of its planned links is blacked out. Organic slot
// occupancy is not a fault; the slot-fallback path handles it.
func (p *OnlinePolicy) policyAlive(comm *collective.Comm, pol *scheduler.Policy) bool {
	ds := comm.Switch(pol.Switch)
	if ds == nil || !ds.Online() || ds.PoolSize() <= ds.SeizedSlots() {
		return false
	}
	net := comm.Network()
	for _, eid := range pol.Edges {
		if net.LinkDown(eid) {
			return false
		}
	}
	return true
}

var _ serving.CommPolicy = (*OnlinePolicy)(nil)

// Plan runs HeroServe's offline planner: the full Alg. 1 + Alg. 2 search
// with the heterogeneous scheme enabled.
func Plan(in planner.Inputs) (*planner.Plan, error) {
	in.Hetero = true
	return planner.Solve(in)
}

// NewSystem plans (if plan is nil) and builds a HeroServe serving system:
// the planned deployment plus the online policy. It returns the system, the
// plan, and the policy (for telemetry).
func NewSystem(in planner.Inputs, plan *planner.Plan, opts serving.Options) (*serving.System, *planner.Plan, *OnlinePolicy, error) {
	if plan == nil {
		var err error
		plan, err = Plan(in)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	pol := NewOnlinePolicy(scheduler.DefaultConfig())
	opts.Policy = pol
	if opts.RouterFactory == nil {
		// HeroServe also steers point-to-point transfers (KV migration,
		// pipeline activations) onto the coolest candidate path (§III-D).
		opts.RouterFactory = func(net *netsim.Network) collective.Router {
			r := collective.NewLoadAwareRouter(in.Graph, 3)
			r.Bind(net)
			return r
		}
	}
	sys, err := serving.New(in.Graph, plan.Deployment, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	pol.Injector = sys.FaultInjector()
	pol.Ledger = sys.DecisionLedger()
	pol.Shares = sys.StageShares()
	return sys, plan, pol, nil
}

// DefaultInputs assembles planner inputs for a graph whose first
// prefillServers servers form the prefill pool, with the given workload
// statistics, arrival rate, and SLA — the common setup of the experiments.
func DefaultInputs(g *topology.Graph, prefillServers int, m planner.Inputs) planner.Inputs {
	pre, dec := planner.SplitPoolsByServer(g, prefillServers)
	m.Graph = g
	m.PrefillGPUs = pre
	m.DecodeGPUs = dec
	m.Hetero = true
	return m
}
