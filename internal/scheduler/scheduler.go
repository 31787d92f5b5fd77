// Package scheduler implements the paper's load-aware online scheduler
// (§III-D). Each tensor-parallel GPU group holds a policy cost table
// (Fig. 5): candidate transmission policies c (scheme + aggregation switch +
// the set of links involved) with a virtual bandwidth-utilization cost b_c.
// On every all-reduce the group selects the policy minimizing
// J(c, D) = b_c + delta (Eq. 16), then all costs are updated synchronously —
// the selected policy by delta, the others by delta scaled with the load
// penalty f(c*, c) (Eq. 17), which is itself an EWMA of the link-sharing
// ratio W(c*, c) (Eq. 18). A central controller periodically refreshes the
// tables from live link telemetry, playing the role of the paper's
// gRPC control plane that keeps all GPUs' tables consistent.
package scheduler

import (
	"fmt"
	"math"

	"heroserve/internal/collective"
	"heroserve/internal/netsim"
	"heroserve/internal/telemetry"
	"heroserve/internal/topology"
)

// Config holds the scheduler's tuning knobs.
type Config struct {
	// Gamma is the EWMA smoothing factor of the penalty update (Eq. 18).
	Gamma float64
	// Window is the estimation window T_u in seconds (Eq. 17).
	Window float64
}

// DefaultConfig returns the configuration used in the experiments.
func DefaultConfig() Config {
	return Config{Gamma: 0.3, Window: 0.1}
}

// Policy is one row of the policy cost table: a communication scheme, its
// aggregation switch (for INA schemes), and the set of links its transfers
// traverse.
type Policy struct {
	Scheme collective.Scheme
	Switch topology.NodeID
	Edges  []topology.EdgeID
	Label  string
	// TrafficFactor is the bytes a policy pushes across its bottleneck link
	// per logical payload byte: ~2 for INA schemes (collect + distribute),
	// 2(P-1)/(P*RingEfficiency) for ring. Zero is treated as 1.
	TrafficFactor float64
}

// bottleneckCapacity returns the smallest link capacity among the policy's
// edges; the delta utilization of a transfer lands on this link first.
func (p *Policy) bottleneckCapacity(g *topology.Graph) float64 {
	min := math.Inf(1)
	for _, eid := range p.Edges {
		if c := g.Edge(eid).Capacity; c < min {
			min = c
		}
	}
	return min
}

// Table is the synchronized policy cost table of one GPU group. The paper
// replicates it on every GPU and keeps the replicas consistent through the
// central controller; the single Table here is that consistent state.
type Table struct {
	Group    []topology.NodeID
	Policies []Policy

	g       *topology.Graph
	cfg     Config
	cost    []float64   // b_c
	penalty [][]float64 // f[(selected, other)]

	selections []int64 // per-policy selection counts (telemetry)

	// eval holds the exact J(c, D) vector the last Select minimized, filled
	// before the synchronized cost update mutates b_c. The decision ledger
	// reads it so the chosen policy's counterfactual cost is bit-identical
	// to the value the argmin compared.
	eval []float64

	// The refresh's tables, fixed by NewTable: the distinct edges of all
	// policies, each policy's edges as indexes into them (parallel to
	// Policy.Edges), and per (selected, other) pair at [selected*n+other] the
	// indexes of other's edges that selected also uses, in other.Edges order,
	// and the pair's static share.
	edges  []topology.EdgeID
	edgeAt [][]int
	shared [][]int
	static []float64
	// Per-refresh scratch: each distinct edge's utilization as read and as
	// clamped for the penalty, and each policy's utilization total.
	live  []float64
	util  []float64
	total []float64
}

// NewTable builds a table over the given candidate policies. Penalties are
// initialized to the static link-sharing ratio (edge-count based) so that the
// very first updates already respect topology overlap.
func NewTable(g *topology.Graph, group []topology.NodeID, policies []Policy, cfg Config) *Table {
	if len(policies) == 0 {
		panic("scheduler: table needs at least one policy")
	}
	if cfg.Gamma <= 0 || cfg.Gamma > 1 {
		panic(fmt.Sprintf("scheduler: gamma %g outside (0,1]", cfg.Gamma))
	}
	if cfg.Window <= 0 {
		panic("scheduler: window must be positive")
	}
	t := &Table{
		Group:      append([]topology.NodeID(nil), group...),
		Policies:   policies,
		g:          g,
		cfg:        cfg,
		cost:       make([]float64, len(policies)),
		penalty:    make([][]float64, len(policies)),
		selections: make([]int64, len(policies)),
	}
	n := len(policies)
	index := make(map[topology.EdgeID]int)
	t.edgeAt = make([][]int, n)
	for j := range policies {
		for _, e := range policies[j].Edges {
			k, ok := index[e]
			if !ok {
				k = len(t.edges)
				index[e] = k
				t.edges = append(t.edges, e)
			}
			t.edgeAt[j] = append(t.edgeAt[j], k)
		}
	}
	t.live = make([]float64, len(t.edges))
	t.util = make([]float64, len(t.edges))
	t.total = make([]float64, n)
	t.shared = make([][]int, n*n)
	t.static = make([]float64, n*n)
	for i := range t.penalty {
		in := make(map[int]bool, len(t.edgeAt[i]))
		for _, k := range t.edgeAt[i] {
			in[k] = true
		}
		t.penalty[i] = make([]float64, n)
		for j := range t.penalty[i] {
			if i == j {
				t.penalty[i][j] = 1
				continue
			}
			for _, k := range t.edgeAt[j] {
				if in[k] {
					t.shared[i*n+j] = append(t.shared[i*n+j], k)
				}
			}
			t.static[i*n+j] = staticShare(&policies[i], &policies[j])
			t.penalty[i][j] = t.static[i*n+j]
		}
	}
	return t
}

// staticShare is the topology-only sharing ratio: |edges(c*) ∩ edges(c)| /
// |edges(c)|, the W of Eq. 18 before any utilization has been observed.
func staticShare(selected, other *Policy) float64 {
	if len(other.Edges) == 0 {
		return 0
	}
	in := make(map[topology.EdgeID]bool, len(selected.Edges))
	for _, e := range selected.Edges {
		in[e] = true
	}
	shared := 0
	for _, e := range other.Edges {
		if in[e] {
			shared++
		}
	}
	return float64(shared) / float64(len(other.Edges))
}

// delta returns the estimated additional utilization of pushing size bytes
// through policy i within the estimation window: D / (T_u * C_bottleneck).
// (The paper prints delta = D/(T_u b_c); dimensional analysis and the
// surrounding text — "estimated additional bandwidth utilization" — require
// the denominator to be a bandwidth, so we read b_c there as the bottleneck
// link bandwidth of policy c.)
func (t *Table) delta(i int, size int64) float64 {
	cap := t.Policies[i].bottleneckCapacity(t.g)
	if math.IsInf(cap, 1) || cap <= 0 {
		return 0
	}
	factor := t.Policies[i].TrafficFactor
	if factor <= 0 {
		factor = 1
	}
	return float64(size) * factor / (t.cfg.Window * cap)
}

// Cost returns the current virtual utilization cost b_c of policy i.
func (t *Table) Cost(i int) float64 { return t.cost[i] }

// Penalty returns the current load-penalty f(selected, other).
func (t *Table) Penalty(selected, other int) float64 { return t.penalty[selected][other] }

// Selections returns how many times each policy has been selected.
func (t *Table) Selections() []int64 {
	return append([]int64(nil), t.selections...)
}

// Costs returns every policy's virtual cost b_c, indexed like Policies. The
// slice is the table's own, not a copy: callers must not modify it, and it
// moves with the next Select or refresh. The telemetry decision audit
// encodes it into each policy pick's trace instant.
func (t *Table) Costs() []float64 { return t.cost }

// LastEval returns the J(c, D) vector of the most recent Select, indexed
// like Policies — the exact floats Eq. 16 minimized, captured before the
// synchronized cost update. The slice is reused by the next Select; callers
// must consume it before then. Nil before the first Select.
func (t *Table) LastEval() []float64 { return t.eval }

// Window returns the estimation window T_u (seconds). Multiplying a J value
// by it converts the utilization cost into estimated bottleneck
// busy-seconds, the unit the decision ledger's regret counters use.
func (t *Table) Window() float64 { return t.cfg.Window }

// Select implements Eq. 16 and Eq. 17 for one transfer of size bytes: it
// returns the policy index minimizing J(c, D) = b_c + delta(c, D) and updates
// every policy's virtual cost — the winner by its delta, the others by the
// winner's delta scaled by the load penalty. Ties break to the lowest index
// (deterministic).
func (t *Table) Select(size int64) int {
	idx, _ := t.SelectBiased(size, nil)
	return idx
}

// SelectBiased is Select with a per-policy multiplicative bias applied to
// the compared J values: J'(c, D) = bias[c] * J(c, D). A nil bias (or all
// ones) reproduces Select exactly. The biased vector is what LastEval
// reports, so the ledger invariant "chosen == argmin of the recorded
// candidates" keeps holding under bias; the synchronized cost update stays
// unbiased (Eq. 17 charges the winner's true delta). swayed reports whether
// the bias changed the winner versus the unbiased argmin.
func (t *Table) SelectBiased(size int64, bias []float64) (best int, swayed bool) {
	if t.eval == nil {
		t.eval = make([]float64, len(t.Policies))
	}
	best = 0
	bestJ := math.Inf(1)
	rawBest, rawJ := 0, math.Inf(1)
	for i := range t.Policies {
		j := t.cost[i] + t.delta(i, size)
		if j < rawJ {
			rawBest, rawJ = i, j
		}
		if bias != nil {
			j *= bias[i]
		}
		t.eval[i] = j
		if j < bestJ {
			best, bestJ = i, j
		}
	}
	swayed = best != rawBest
	d := t.delta(best, size)
	for i := range t.Policies {
		if i == best {
			t.cost[i] += d
		} else {
			t.cost[i] += d * t.penalty[best][i]
		}
	}
	t.selections[best]++
	return best, swayed
}

// RefreshCost re-anchors every policy's virtual cost to the live maximum
// utilization among its links (the J(c,D) definition: "the maximum bandwidth
// utilization ratio among all transmission links involved with c"). util
// maps an edge to its current utilization in [0, 1]. util must be a pure
// read: each distinct edge is read once per call.
func (t *Table) RefreshCost(util func(topology.EdgeID) float64) {
	t.read(util)
	t.refreshCost()
}

// RefreshPenalty applies Eq. 18: f <- (1-gamma) f + gamma W, with
// W(c*, c) = sum_{e in c* ∩ c} B(e) / sum_{e in c} B(e) computed from the
// monitored utilization of the intersecting links. When policy c carries no
// observed load at all, the static edge-count share is used for W. util must
// be a pure read: each distinct edge is read once per call. The sums run
// over c's edges in Policy.Edges order, and the call allocates nothing.
func (t *Table) RefreshPenalty(util func(topology.EdgeID) float64) {
	t.read(util)
	t.refreshPenalty()
}

// read fills t.live with each distinct edge's utilization.
func (t *Table) read(util func(topology.EdgeID) float64) {
	for k, e := range t.edges {
		t.live[k] = util(e)
	}
}

// refreshCost is RefreshCost over the utilizations in t.live.
func (t *Table) refreshCost() {
	for i, at := range t.edgeAt {
		var worst float64
		for _, k := range at {
			if u := t.live[k]; u > worst {
				worst = u
			}
		}
		t.cost[i] = worst
	}
}

// refreshPenalty is RefreshPenalty over the utilizations in t.live.
func (t *Table) refreshPenalty() {
	for k, u := range t.live {
		// A blacked-out link reports +Inf utilization; clamp it so the
		// sharing ratio W stays finite (Inf/Inf is NaN and would poison the
		// EWMA permanently).
		if math.IsInf(u, 1) {
			u = 1
		}
		t.util[k] = u
	}
	for j, at := range t.edgeAt {
		var total float64
		for _, k := range at {
			total += t.util[k]
		}
		t.total[j] = total
	}
	n := len(t.Policies)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			var shared float64
			for _, k := range t.shared[i*n+j] {
				shared += t.util[k]
			}
			w := t.static[i*n+j]
			if t.total[j] > 0 {
				w = shared / t.total[j]
			}
			t.penalty[i][j] = (1-t.cfg.Gamma)*t.penalty[i][j] + t.cfg.Gamma*w
		}
	}
}

// Controller is the central HeroServe controller: it owns the group tables
// and periodically refreshes them from network telemetry, standing in for
// the gRPC loop between the scheduler, switch agents, and GPU agents (§IV).
type Controller struct {
	net      *netsim.Network
	tables   []*Table
	interval float64

	// The distinct edges of every registered table, their utilizations as
	// of the last tick, and per table the index in them of each of the
	// table's distinct edges. read is the utilization probe,
	// net.EdgeUtilization.
	edges []topology.EdgeID
	index map[topology.EdgeID]int
	at    [][]int
	snap  []float64
	read  func(topology.EdgeID) float64

	ticks   int64
	running bool

	// stalledUntil implements GPU-agent stalls injected by internal/faults:
	// while the simulated clock is before it, refresh rounds are skipped and
	// the policy tables go stale (the replicas keep serving selections from
	// their last synchronized state).
	stalledUntil float64
	stalledTicks int64

	// switchHealth, when non-nil, reports whether an aggregation switch is
	// currently usable (online with free aggregator slots). Policies whose
	// switch is unhealthy get an infinite cost during refresh, steering
	// every group back to ring until the switch recovers.
	switchHealth func(topology.NodeID) bool

	// Telemetry (nil when off).
	telRefreshes *telemetry.Counter
	telStalled   *telemetry.Counter
	telPricedOut *telemetry.Counter
	telStaleness *telemetry.Gauge
	lastRefresh  float64
}

// SetTelemetry arms control-plane metrics: refresh/stall counters and the
// table-staleness gauge (seconds since the last successful refresh, sampled
// at every tick).
func (c *Controller) SetTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	m := h.Metrics
	c.telRefreshes = m.Counter("scheduler_refreshes_total",
		"Policy-table refresh rounds completed.", nil)
	c.telStalled = m.Counter("scheduler_stalled_ticks_total",
		"Refresh rounds skipped because a GPU agent stalled.", nil)
	c.telPricedOut = m.Counter("scheduler_priced_out_total",
		"Policies priced to +Inf because their switch was unhealthy.", nil)
	c.telStaleness = m.Gauge("policy_table_staleness_seconds",
		"Age of the policy tables at each controller tick.", nil)
}

// NewController returns a controller polling telemetry every interval
// seconds of simulated time.
func NewController(net *netsim.Network, interval float64) *Controller {
	if interval <= 0 {
		panic("scheduler: controller interval must be positive")
	}
	return &Controller{
		net:      net,
		interval: interval,
		index:    make(map[topology.EdgeID]int),
		read:     net.EdgeUtilization,
	}
}

// Register adds a table to the refresh loop, and its edges to the ones each
// tick reads.
func (c *Controller) Register(t *Table) {
	at := make([]int, len(t.edges))
	for k, e := range t.edges {
		i, ok := c.index[e]
		if !ok {
			i = len(c.edges)
			c.index[e] = i
			c.edges = append(c.edges, e)
			c.snap = append(c.snap, 0)
		}
		at[k] = i
	}
	c.tables = append(c.tables, t)
	c.at = append(c.at, at)
}

// Ticks returns how many refresh rounds have run.
func (c *Controller) Ticks() int64 { return c.ticks }

// StalledTicks returns how many refresh rounds were skipped by agent stalls.
func (c *Controller) StalledTicks() int64 { return c.stalledTicks }

// StallFor suspends table refreshes for the next d simulated seconds,
// modelling a GPU agent that stops answering the control plane's policy-table
// sync (§IV). Overlapping stalls extend to the furthest deadline. Selections
// continue against the last synchronized tables.
func (c *Controller) StallFor(d float64) {
	if d <= 0 {
		return
	}
	until := c.net.Engine().Now() + d
	if until > c.stalledUntil {
		c.stalledUntil = until
	}
}

// Stalled reports whether the controller is currently inside a stall window.
func (c *Controller) Stalled() bool {
	return c.net.Engine().Now() < c.stalledUntil
}

// BindSwitchHealth installs the switch-agent health probe consulted on every
// refresh (nil disables the check).
func (c *Controller) BindSwitchHealth(f func(topology.NodeID) bool) { c.switchHealth = f }

// Tick refreshes all tables once from the live link utilization, then prices
// out policies whose aggregation switch is unhealthy. It reads each distinct
// edge once into a snapshot that every table refreshes from, exactly as
// RefreshCost and RefreshPenalty with net.EdgeUtilization would. During a
// stall window the refresh is skipped entirely.
func (c *Controller) Tick() {
	now := c.net.Engine().Now()
	if c.Stalled() {
		c.stalledTicks++
		c.telStalled.Inc()
		c.telStaleness.Set(now - c.lastRefresh)
		return
	}
	c.telStaleness.Set(now - c.lastRefresh)
	c.lastRefresh = now
	for k, e := range c.edges {
		c.snap[k] = c.read(e)
	}
	for ti, t := range c.tables {
		for k, s := range c.at[ti] {
			t.live[k] = c.snap[s]
		}
		t.refreshCost()
		t.refreshPenalty()
		if c.switchHealth != nil {
			for i := range t.Policies {
				p := &t.Policies[i]
				if p.Scheme.UsesINA() && p.Switch >= 0 && !c.switchHealth(p.Switch) {
					t.cost[i] = math.Inf(1)
					c.telPricedOut.Inc()
				}
			}
		}
	}
	c.ticks++
	c.telRefreshes.Inc()
}

// Start schedules the periodic refresh on the network's event engine. The
// refresh rides daemon events and reschedules itself only while flows or
// real (non-daemon) work exist, so it neither keeps an otherwise-finished
// simulation alive nor ping-pongs forever with another periodic controller
// such as the serving autoscaler; call Tick manually for one-shot refreshes.
func (c *Controller) Start() {
	if c.running {
		return
	}
	c.running = true
	eng := c.net.Engine()
	var loop func()
	loop = func() {
		c.Tick()
		if c.net.ActiveFlows() > 0 || eng.PendingWork() > 0 {
			eng.PostAfterDaemon(c.interval, loop)
		} else {
			c.running = false
		}
	}
	eng.PostAfterDaemon(c.interval, loop)
}
