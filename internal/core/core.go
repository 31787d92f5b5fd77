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

	"heroserve/internal/baselines"
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

// OnlinePolicy is HeroServe's communication policy: per tensor-parallel
// group it lazily builds a policy cost table (ring, Ethernet INA, and
// heterogeneous INA candidates over the nearest switches), selects the
// cheapest policy per all-reduce (Eq. 16), applies the synchronized cost
// updates (Eq. 17), and lets the central controller refresh costs and
// penalties from live telemetry (Eq. 18).
type OnlinePolicy struct {
	cfg    scheduler.Config
	groups map[serving.GroupID]*group
	ctl    *scheduler.Controller
	// Hetero can be disabled for ablations (Ethernet-only online choice).
	Hetero bool
	// Injector, when non-nil, is the run's fault injector: the lazily created
	// controller registers with it as a Staller (GPU-agent stall faults skip
	// its refresh rounds) and consults switch health during refresh. Set by
	// core.NewSystem; harmless to leave nil on fault-free runs.
	Injector *faults.Injector
	// Ledger, when non-nil, receives one record per policy pick:
	// the full candidate cost vector Eq. 16 minimized, the chosen and
	// executed rows, and the execution regret. Set by core.NewSystem from
	// the serving system's decision ledger.
	Ledger *decisions.Ledger
	// Shares is unread: the policy is the paper's plain Eq. 16 argmin, and
	// an observer never steers it. The field remains only because the
	// benchmark harness's system builder still sets it.
	Shares *critpath.ShareTracker
	// handles caches the audit's counter handles for the current hub.
	handles auditHandles
	// args is the policy-select instant's arguments: scratch reused by
	// every pick, since the tracer consumes them before the pick returns.
	args telemetry.Args
}

// group is the online state of one tensor-parallel group.
type group struct {
	table *scheduler.Table
	// label names the group in audit records: "role/inst/stage".
	label string
	// costs is the policy-select instant's cost column: the table's labels,
	// sorted once, over a view of its live costs.
	costs *telemetry.FloatColumn
	// ledger is the decision ledger the table is registered with, and
	// ledgerTable its id there.
	ledger      *decisions.Ledger
	ledgerTable int
}

// auditHandles caches the counters one policy pick bumps, so an audit costs
// map hits instead of registry lookups that join label strings. Each handle
// is created on its first use, never before: registering a series early
// would export it at zero. The cache belongs to one hub and is rebuilt when
// the hub changes.
type auditHandles struct {
	hub     *telemetry.Hub
	picks   map[[2]string]*telemetry.Counter // collective_scheme_total{scheme,reason}
	records *telemetry.Counter               // decision_records_total{kind="collective"}
	regret  map[string]*telemetry.Counter    // policy_regret_seconds_total{scheme}
}

// metrics returns the handle cache bound to tel.
func (p *OnlinePolicy) metrics(tel *telemetry.Hub) *auditHandles {
	if p.handles.hub != tel {
		p.handles = auditHandles{
			hub:    tel,
			picks:  make(map[[2]string]*telemetry.Counter),
			regret: make(map[string]*telemetry.Counter),
		}
	}
	return &p.handles
}

func (h *auditHandles) pick(scheme, reason string) *telemetry.Counter {
	key := [2]string{scheme, reason}
	c, ok := h.picks[key]
	if !ok {
		c = h.hub.Metrics.Counter("collective_scheme_total",
			"Online policy picks by executed scheme and decision reason.",
			[]string{"scheme", "reason"}, scheme, reason)
		h.picks[key] = c
	}
	return c
}

func (h *auditHandles) record() *telemetry.Counter {
	if h.records == nil {
		h.records = h.hub.Metrics.Counter("decision_records_total",
			"Decision-ledger records appended, by kind.",
			[]string{"kind"}, decisions.KindCollective)
	}
	return h.records
}

func (h *auditHandles) schemeRegret(scheme string) *telemetry.Counter {
	c, ok := h.regret[scheme]
	if !ok {
		c = h.hub.Metrics.Counter("policy_regret_seconds_total",
			"Counterfactual regret of always forcing a scheme, in estimated bottleneck busy-seconds.",
			[]string{"scheme"}, scheme)
		h.regret[scheme] = c
	}
	return c
}

// NewOnlinePolicy returns the policy with the given scheduler config.
func NewOnlinePolicy(cfg scheduler.Config) *OnlinePolicy {
	return &OnlinePolicy{
		cfg:    cfg,
		groups: make(map[serving.GroupID]*group),
		Hetero: true,
	}
}

// Name implements serving.CommPolicy.
func (p *OnlinePolicy) Name() string { return "HeroServe" }

// Tables returns the number of group tables instantiated (telemetry).
func (p *OnlinePolicy) Tables() int { return len(p.groups) }

// SchemeSelections aggregates, per scheme, how many times any table selected
// a policy of that scheme.
func (p *OnlinePolicy) SchemeSelections() map[collective.Scheme]int64 {
	out := make(map[collective.Scheme]int64)
	for _, g := range p.groups {
		t := g.table
		sels := t.Selections()
		for i, n := range sels {
			out[t.Policies[i].Scheme] += n
		}
	}
	return out
}

// group lazily builds the group's policy table and attaches it to the
// controller, creating (and starting) the controller on first use.
func (p *OnlinePolicy) group(ctx *serving.GroupCtx, msgBytes int64) *group {
	if grp, ok := p.groups[ctx.ID]; ok {
		return grp
	}
	g := ctx.Comm.Network().Graph()
	policies := scheduler.BuildGroupPolicies(g, ctx.Comm.Router(), ctx.Group, msgBytes, maxSwitchCandidates, p.Hetero)
	if len(policies) == 0 {
		// Unroutable ring would have paniced earlier in planning; synthesize
		// a ring policy with no edges as a last resort.
		policies = []scheduler.Policy{{Scheme: collective.SchemeRing, Switch: -1, Label: "ring"}}
	}
	t := scheduler.NewTable(g, ctx.Group.Members(), policies, p.cfg)
	labels := make([]string, len(policies))
	for i := range policies {
		labels[i] = policies[i].Label
	}
	id := ctx.ID
	grp := &group{
		table: t,
		label: fmt.Sprintf("%s/%d/%d", id.Role, id.Instance, id.Stage),
		costs: telemetry.NewFloatColumn(labels),
	}
	p.groups[id] = grp
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
	return grp
}

// AllReduce implements serving.CommPolicy.
func (p *OnlinePolicy) AllReduce(ctx *serving.GroupCtx, msgBytes int64, steps int, done func()) {
	scheme, sw := p.pick(ctx, msgBytes, steps)
	ctx.Comm.AllReduce(scheme, ctx.Group, sw, msgBytes, steps, ctx.Reqs, done)
}

// pick is one online decision: it selects the group's policy (Eq. 16/17),
// applies the data-plane guard and audits the pick. It returns the scheme
// and switch to execute.
func (p *OnlinePolicy) pick(ctx *serving.GroupCtx, msgBytes int64, steps int) (collective.Scheme, topology.NodeID) {
	grp := p.group(ctx, msgBytes)
	t := grp.table
	idx := t.Select(msgBytes * int64(steps))
	pol := t.Policies[idx]
	sw := pol.Switch
	scheme := pol.Scheme
	reason := "table"
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
	p.audit(ctx, grp, idx, exec, scheme, reason, msgBytes, steps)
	return scheme, sw
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
// collective_scheme_total{scheme,reason} counter, the ledger's record with
// the full counterfactual cost vector plus the per-scheme regret counters
// (policy_regret_seconds_total{scheme}), and a policy-select trace instant
// carrying the winning policy, the executed scheme, and the cost-table
// snapshot (the paper's Fig. 5 state at decision time). chosen/exec index
// the table's policies; they differ only under guard fallback.
func (p *OnlinePolicy) audit(ctx *serving.GroupCtx, grp *group, chosen, exec int, scheme collective.Scheme, reason string, msgBytes int64, steps int) {
	tel := ctx.Comm.Telemetry()
	t := grp.table
	if p.Ledger != nil || tel != nil {
		p.ledger(ctx, grp, chosen, exec, scheme, reason, msgBytes, steps, tel)
	}
	if tel == nil {
		return
	}
	p.metrics(tel).pick(scheme.String(), reason).Inc()
	// The snapshot is the post-update b_c, read in place: the instant is
	// encoded before the next Select moves it.
	grp.costs.Values = t.Costs()
	args := append(p.args[:0],
		telemetry.Int64("bytes", msgBytes*int64(steps)),
		telemetry.Col("costs", grp.costs),
		telemetry.Str("group", grp.label),
		telemetry.Str("policy", t.Policies[chosen].Label),
		telemetry.Str("reason", reason))
	if len(ctx.Reqs) > 0 {
		args = append(args, telemetry.Ints("reqs", ctx.Reqs))
	}
	args = append(args,
		telemetry.Str("scheme", scheme.String()),
		telemetry.Bool("stalled", p.ctl.Stalled()))
	p.args = args
	tel.Trace.Instant(telemetry.ControlTID, "sched", "policy-select", args)
}

// ledger writes the counterfactual record of one pick: a ledger row against
// the group's table, registered on the group's first pick. The candidate
// costs come straight from Table.LastEval — the exact J(c, D) floats the
// argmin compared, captured before the synchronized cost update — so the
// chosen row's counterfactual cost equals the audited cost bit for bit.
// Regret is expressed in estimated bottleneck busy-seconds (J x T_u); the
// per-scheme counters accumulate each scheme's cheapest candidate against
// the overall optimum, i.e. the cost of always forcing that scheme.
func (p *OnlinePolicy) ledger(ctx *serving.GroupCtx, grp *group, chosen, exec int, scheme collective.Scheme, reason string, msgBytes int64, steps int, tel *telemetry.Hub) {
	t := grp.table
	eval := t.LastEval()
	if eval == nil {
		return
	}
	w := t.Window()
	best := 0
	for i, j := range eval {
		if j < eval[best] {
			best = i
		}
	}
	if p.Ledger != nil {
		if grp.ledger != p.Ledger {
			labels := make([]string, len(t.Policies))
			schemes := make([]string, len(t.Policies))
			for i := range t.Policies {
				labels[i], schemes[i] = t.Policies[i].Label, t.Policies[i].Scheme.String()
			}
			grp.ledger, grp.ledgerTable = p.Ledger, p.Ledger.RegisterTable(grp.label, labels, schemes)
		}
		actual := eval[exec] * w
		regret := actual - eval[best]*w
		if regret != regret { // Inf - Inf
			regret = 0
		}
		p.Ledger.AddPick(decisions.Pick{
			T:        ctx.Comm.Network().Engine().Now(),
			Table:    grp.ledgerTable,
			Bytes:    msgBytes * int64(steps),
			Steps:    steps,
			Costs:    eval,
			Window:   w,
			Chosen:   chosen,
			Best:     best,
			Executed: exec,
			Scheme:   scheme.String(),
			Reason:   reason,
			Actual:   actual,
			Regret:   regret,
			Stalled:  p.ctl.Stalled(),
		})
	}
	if tel == nil {
		return
	}
	h := p.metrics(tel)
	h.record().Inc()
	// Per-scheme counterfactual regret: for each scheme present in the
	// table, its cheapest candidate versus the overall optimum. The winning
	// scheme contributes exactly zero; +Inf-priced (faulted) schemes are
	// skipped so the totals stay finite.
	bestJ := eval[best] * w
	if math.IsInf(bestJ, 0) {
		return
	}
	var cheapest [4]float64 // indexed by Scheme
	var present [4]bool
	for i := range t.Policies {
		s, j := t.Policies[i].Scheme, eval[i]*w
		if !present[s] || j < cheapest[s] {
			cheapest[s], present[s] = j, true
		}
	}
	for s, j := range cheapest {
		if present[s] && !math.IsInf(j, 0) {
			h.schemeRegret(collective.Scheme(s).String()).Add(j - bestJ)
		}
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
// the planned deployment plus the online policy. A caller's opts.Policy and
// opts.RouterFactory are kept (the ablations vary the policy); an
// *OnlinePolicy, the caller's or the default one, is wired to the system's
// fault injector and decision ledger. It returns the system, the plan, and
// that online policy (nil under another policy).
func NewSystem(in planner.Inputs, plan *planner.Plan, opts serving.Options) (*serving.System, *planner.Plan, *OnlinePolicy, error) {
	if plan == nil {
		var err error
		plan, err = Plan(in)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	if opts.Policy == nil {
		opts.Policy = NewOnlinePolicy(scheduler.DefaultConfig())
	}
	pol, _ := opts.Policy.(*OnlinePolicy)
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
	if pol != nil {
		pol.Injector = sys.FaultInjector()
		pol.Ledger = sys.DecisionLedger()
	}
	return sys, plan, pol, nil
}

// System is one row of the systems table: one of the four systems the
// paper's evaluation (§V) compares, and how to plan and build it.
type System struct {
	// Name is the system's -system flag value.
	Name string
	// Display is the name reports print and the system's policy carries.
	Display string
	// Scheme is the system's native all-reduce scheme.
	Scheme collective.Scheme
	// Plan runs the system's offline planner.
	Plan func(in planner.Inputs) (*planner.Plan, error)
	// Build builds the serving system over a plan from Plan.
	Build func(in planner.Inputs, plan *planner.Plan, opts serving.Options) (*serving.System, error)
}

// Systems is the systems table, in the paper's reporting order. Every
// command and experiment that runs a system looks it up here.
var Systems = []System{
	{Name: "heroserve", Display: "HeroServe", Scheme: collective.SchemeHetero, Plan: Plan,
		Build: func(in planner.Inputs, plan *planner.Plan, opts serving.Options) (*serving.System, error) {
			sys, _, _, err := NewSystem(in, plan, opts)
			return sys, err
		}},
	baseline("distserve", "DistServe", collective.SchemeRing),
	baseline("ds-atp", "DS-ATP", collective.SchemeINAAsync),
	baseline("ds-switchml", "DS-SwitchML", collective.SchemeINASync),
}

// baseline is the row of the baseline that runs scheme.
func baseline(name, display string, scheme collective.Scheme) System {
	return System{
		Name:    name,
		Display: display,
		Scheme:  scheme,
		Plan: func(in planner.Inputs) (*planner.Plan, error) {
			return baselines.Plan(scheme, in)
		},
		Build: func(in planner.Inputs, plan *planner.Plan, opts serving.Options) (*serving.System, error) {
			opts.Policy = serving.PlannedPolicy{Label: display}
			return serving.New(in.Graph, plan.Deployment, opts)
		},
	}
}

// SystemNames lists the table's -system names, "a | b | ...".
func SystemNames() string {
	names := make([]string, len(Systems))
	for i, s := range Systems {
		names[i] = s.Name
	}
	return strings.Join(names, " | ")
}

// ByName returns the table row a command line names.
func ByName(name string) (System, error) {
	for _, s := range Systems {
		if s.Name == name {
			return s, nil
		}
	}
	return System{}, fmt.Errorf("unknown system %q (allowed: %s)", name, SystemNames())
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
