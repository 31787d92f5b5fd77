// Package netsim is a flow-level simulator of the heterogeneous cluster
// network. Concurrent transfers ("flows") traverse paths from the topology
// graph and share every link max-min fairly; whenever a flow starts or
// finishes, all rates are recomputed by progressive water-filling and the
// network's completion timer is re-armed on the discrete-event engine — once
// per batch of changes on a held network (see below).
//
// This is the substrate that makes the paper's congestion arguments
// observable: bursty traffic on 100 GbE drags down in-network aggregation
// throughput (the ~78% degradation cited in §I), while HeroServe's
// heterogeneous scheduling shifts load onto NVLink and recovers it. The
// simulator also exposes the per-link telemetry the paper's agents poll
// (hardware byte counters, current utilization) to drive the online
// scheduler.
//
// Two water-filling implementations share the Network type. New returns the
// fast path: each reallocation recomputes rates only over the connected
// component of links reachable from the edges the triggering change touched
// (flows elsewhere keep their — still exact — rates), fills path classes
// (the active flows that cross one and the same edge sequence) rather than
// single flows, so its work follows the distinct paths in the component,
// and reuses epoch-stamped scratch buffers so a steady-state reallocation
// performs no heap allocation of its own. NewReference keeps the original
// global fixed-point recomputation, each flow's own rate and remaining
// bytes, and an ID-ordered timer scan over every flow. Both produce
// bit-identical rates, completion times, and event orderings — the fast path
// deliberately issues the same engine ScheduleSeq/Cancel sequence, so FIFO
// tie-breaks cannot drift — proven over long randomized scripts by
// differential_test.go and fuzzed for max-min invariants by FuzzReallocate.
//
// Completions are driven by one engine event per Network, not one per flow.
// Every change reserves the sequence number its re-arm takes
// (sim.Engine.ReserveSeq), and after every reallocation that timer is armed
// for the flow with the minimum (finish time, ID) under the last change's
// number, with sim.Engine.ScheduleSeq, so re-arming allocates nothing; with
// every flow stalled, the timer is cancelled. This pops
// completions in exactly the order per-flow events would: those would all be
// re-timed in ID order by the same reallocation, so they would hold one
// consecutive block of sequence numbers, pop in (time, ID) order, and tie
// with any other event on whether it was queued before or after that
// reallocation — which is where the one timer's sequence number puts it too.
// Only the block's first event could ever fire: the completion it triggers
// reallocates, which re-times all the others.
//
// The fast path finds that flow with one candidate per live path class, not
// one look per flow. A class's flows share one rate and one progress clock,
// so a charge takes the same bytes off each of them: the class keeps its
// flows sorted by remaining bytes, and a charge can tie two of them but
// never swap them. Finish times ascend with remaining bytes, so the flows
// tying with the class's head on finish time are a prefix of the class, and
// the candidate is the lowest ID in that prefix. Ties on remaining bytes are
// kept in ID order, so that is the head unless two different remainders
// round to one finish time, which a look past the head's run detects.
//
// Hold and Release batch changes. Between them, a change — a flow's start,
// completion or cancellation, or a link rescale — records the edges it
// touched and reserves its timer number, and the network settles once, with
// one reallocation over the union of those edges: at Release, or before
// anything reads a rate. Max-min rates depend only on the active set, and
// the timer's (time, number) sorts where the last eager re-arm would have,
// so a held network is observably the eager one (DESIGN.md, "Pooled events
// and flow groups"); a caller that reads a rate between its changes, as the
// load-aware router does, simply gets one reallocation per change.
//
// StartGroup is the one way to start a group of flows: every collective
// phase, whose caller has routed all its paths first, and every one-flow
// transfer. It reports the group's joint completion once. It holds the
// network across its starts, so one reallocation rates the whole group.
// Nobody outside the network holds a group's flows, so they and the group
// are recycled after delivery, and every delivery is posted to the engine
// without a handle: a steady stream of collective phases and transfers
// allocates nothing here. StartFlow starts a lone flow that its caller may
// cancel or inspect.
package netsim

import (
	"fmt"
	"math"
	"slices"

	"heroserve/internal/sim"
	"heroserve/internal/telemetry"
	"heroserve/internal/topology"
)

// FlowID identifies a flow within one Network.
type FlowID int64

// Flow is an in-flight transfer along a fixed path.
type Flow struct {
	ID    FlowID
	Path  topology.Path
	Size  int64 // bytes
	Start sim.Time

	// remaining and rate are the bytes left to serialize and the max-min
	// rate (bytes/s). On the fast path a flow's class holds them while the
	// flow is active; the reference path keeps them here throughout.
	remaining float64
	rate      float64
	// class is the flow's path class while it is active on the fast path,
	// nil otherwise, and classPos its index in class.flows.
	class     *pathClass
	classPos  int
	active    bool    // in the active sets: started and neither finished nor cancelled
	latency   float64 // fixed path latency, applied after serialization
	done      func(*Flow)
	net       *Network
	cancelled bool

	// group is the flow's group, nil for a StartFlow flow. A group's flow is
	// recycled once it delivers.
	group *group
	// deliver is the flow's delivery callback, built on first use and kept
	// across recycling.
	deliver func()
}

// pathClass bundles the fast path's active flows that cross one and the same
// edge sequence. Such flows are always frozen in the same water-filling round
// at the same share, so the class holds their rate and the allocator walks
// classes instead of flows. They make the same progress on every charge, so
// the timer takes one candidate per class.
type pathClass struct {
	// flows[head:] are the class's flows in ascending (remaining, ID) order
	// and rem[head:] their remaining bytes, as of Network.lastCharge: the
	// class holds its flows' progress, so a charge walks one array.
	// Flow.classPos is a flow's index in both. A join usually lands at the
	// back and a completion leaves at the front, so neither shifts the rest.
	flows []*Flow
	rem   []float64
	head  int

	// rate is the share the class was last frozen at, which all its flows
	// run at.
	rate float64

	// Water-filling state, valid only while the owning Network's epoch
	// matches (no clearing pass between reallocations).
	compEpoch   uint64
	frozenEpoch uint64

	livePos int // index in Network.live
	// edges is the class's own copy of the path: a caller may reuse a path's
	// slices once that flow has left, while the class lives on.
	edges []topology.EdgeID
}

// members returns the class's flows in (remaining, ID) order.
func (c *pathClass) members() []*Flow { return c.flows[c.head:] }

// size returns the number of the class's flows.
func (c *pathClass) size() int { return len(c.flows) - c.head }

// Rate returns the flow's current max-min fair rate in bytes/second. On a
// held network it settles the pending changes first.
func (f *Flow) Rate() float64 {
	f.net.settle()
	return f.curRate()
}

// curRate is Rate without the settle.
func (f *Flow) curRate() float64 {
	if c := f.class; c != nil {
		return c.rate
	}
	return f.rate
}

// Remaining returns the bytes not yet serialized, as of the last flow event.
// On a held network it settles the pending changes first.
func (f *Flow) Remaining() float64 {
	f.net.settle()
	return f.curRemaining()
}

// curRemaining is Remaining without the settle.
func (f *Flow) curRemaining() float64 {
	if c := f.class; c != nil {
		return c.rem[f.classPos]
	}
	return f.remaining
}

// Network simulates flows over a topology graph.
type Network struct {
	g   *topology.Graph
	eng *sim.Engine

	// ref selects the reference (global, allocating) water-filling path.
	ref bool

	order     []*Flow   // active flows in ascending ID order
	linkFlows [][]*Flow // edge id -> active flows crossing it
	nextID    FlowID

	// Path classes (fast path only). live lists the classes holding active
	// flows, in no particular order, and linkClasses[eid] those crossing
	// eid, each once. Emptied classes are recycled through freeClasses;
	// classes counts every class built, so a drained network holds them all
	// on the free list.
	live        []*pathClass
	linkClasses [][]*pathClass
	freeClasses []*pathClass
	classes     int

	// busy lists the edges with at least one active flow, in no particular
	// order; busyPos[eid] is eid's index in busy, meaningful only while
	// linkFlows[eid] is non-empty. Charging busy-seconds walks this list, so
	// it costs the links in use, not the whole topology.
	busy    []topology.EdgeID
	busyPos []int

	// The completion timer: one engine event for the whole network, armed
	// for next, the active flow that finishes first, and re-armed at the end
	// of every reallocation under seq, the sequence number the last change
	// reserved. timerFn is built once, so re-arming allocates nothing.
	timer   *sim.Event
	next    *Flow
	timerFn func()
	seq     uint64

	// holds counts the open Holds. dirty lists the edges the changes made
	// while held have touched since the network last settled; it is empty
	// exactly when no reallocation is pending.
	holds int
	dirty []topology.EdgeID

	// Recycled group flows and groups.
	freeFlows  []*Flow
	freeGroups []*group

	// linkScale scales each edge's capacity for fault injection: 1 is a
	// healthy link, 0 a blacked-out one. Lazily allocated by SetLinkScale so
	// fault-free simulations pay nothing.
	linkScale []float64

	// lastCharge is the instant every active flow's remaining bytes are
	// charged up to.
	lastCharge sim.Time

	tel *netTelemetry // nil when telemetry is off

	perf PerfProbe // nil when self-profiling is off

	// Fast-path scratch, allocated once at New and epoch-stamped instead of
	// cleared, so reallocation does not allocate. All indexed by edge id.
	epoch     uint64
	linkEpoch []uint64
	capLeft   []float64
	count     []int
	compLinks []topology.EdgeID // component links, reused across reallocations
	linkQueue []topology.EdgeID // BFS worklist, reused
}

// netTelemetry holds the network's metric handles. Per-link families are
// pre-registered for every edge so exports always list the full topology,
// idle links included.
type netTelemetry struct {
	started   *telemetry.Counter
	delivered *telemetry.Counter
	cancelled *telemetry.Counter
	flowBytes *telemetry.Counter
	flowDur   *telemetry.Histogram
	linkBusy  []*telemetry.Counter // seconds with >=1 active flow, per edge
	// linkBytes counts the bytes serialized onto each edge: the simulated
	// switch hardware counters polled by the control plane (§IV). Progress
	// is charged lazily, so a counter is exact as of the last flow event.
	linkBytes []*telemetry.Counter
}

// PerfProbe observes water-filling reallocations for the performance
// observatory (internal/telemetry/perf). ReallocStart runs just before a
// recomputation and may return a wall-clock token (0 = don't time this one);
// ReallocDone receives the token back along with the work actually done:
// links and flows in the recomputed component and the number of
// progressive-filling rounds (bottleneck freezes) the fixed point took. The
// probe is a pure observer — it cannot change rates, schedules, or ordering.
type PerfProbe interface {
	ReallocStart() int64
	ReallocDone(token int64, links, flows, rounds int)
}

// SetPerf installs (or, with nil, removes) the reallocation probe.
func (n *Network) SetPerf(p PerfProbe) { n.perf = p }

// SetTelemetry arms flow and per-link metrics on the hub's registry.
func (n *Network) SetTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	m := h.Metrics
	t := &netTelemetry{
		started:   m.Counter("net_flows_started_total", "Flows started.", nil),
		delivered: m.Counter("net_flows_delivered_total", "Flows delivered to their destination.", nil),
		cancelled: m.Counter("net_flows_cancelled_total", "Flows cancelled before delivery.", nil),
		flowBytes: m.Counter("net_flow_bytes_total", "Bytes requested across all flows.", nil),
		flowDur: m.Histogram("net_flow_seconds", "Flow start-to-delivery time.",
			[]float64{1e-5, 1e-4, 1e-3, 0.01, 0.1, 1, 10}, nil),
		linkBusy:  make([]*telemetry.Counter, n.g.NumEdges()),
		linkBytes: make([]*telemetry.Counter, n.g.NumEdges()),
	}
	for eid := 0; eid < n.g.NumEdges(); eid++ {
		label := n.linkLabel(topology.EdgeID(eid))
		t.linkBusy[eid] = m.Counter("link_busy_seconds",
			"Sim-seconds the link carried at least one flow.", []string{"link"}, label)
		t.linkBytes[eid] = m.Counter("link_bytes_total",
			"Bytes serialized onto the link.", []string{"link"}, label)
	}
	n.tel = t
}

// linkLabel names an edge for metric labels: "007:gpu0-tor0". The numeric
// prefix keeps labels unique (parallel links) and sorts exports in edge order.
func (n *Network) linkLabel(eid topology.EdgeID) string {
	e := n.g.Edge(eid)
	a, b := n.g.Node(e.A).Name, n.g.Node(e.B).Name
	if a == "" {
		a = fmt.Sprintf("n%d", e.A)
	}
	if b == "" {
		b = fmt.Sprintf("n%d", e.B)
	}
	return fmt.Sprintf("%03d:%s-%s", int(eid), a, b)
}

// New returns a Network over g driven by eng, using the fast incremental
// water-filling path.
func New(g *topology.Graph, eng *sim.Engine) *Network {
	n := newNetwork(g, eng)
	n.linkEpoch = make([]uint64, g.NumEdges())
	n.capLeft = make([]float64, g.NumEdges())
	n.count = make([]int, g.NumEdges())
	n.linkClasses = make([][]*pathClass, g.NumEdges())
	return n
}

// NewReference returns a Network using the original global water-filling
// implementation: every reallocation recomputes every flow's rate from a
// fresh fixed point. It is behaviorally identical to New — the differential
// tests prove bit-exact agreement — and exists as the equivalence oracle
// and benchmark baseline.
func NewReference(g *topology.Graph, eng *sim.Engine) *Network {
	n := newNetwork(g, eng)
	n.ref = true
	return n
}

func newNetwork(g *topology.Graph, eng *sim.Engine) *Network {
	n := &Network{
		g:         g,
		eng:       eng,
		linkFlows: make([][]*Flow, g.NumEdges()),
		busyPos:   make([]int, g.NumEdges()),
	}
	n.timerFn = func() { n.finishFlow(n.next) }
	return n
}

// Graph returns the underlying topology graph.
func (n *Network) Graph() *topology.Graph { return n.g }

// SetLinkScale scales the effective capacity of an edge to frac of its
// nominal capacity (1 = healthy, 0 = blackout). All flow rates are
// recomputed immediately: flows crossing a blacked-out link stall at rate
// zero until the link recovers. frac outside [0, 1] is clamped; NaN panics.
func (n *Network) SetLinkScale(eid topology.EdgeID, frac float64) {
	if math.IsNaN(frac) {
		panic(fmt.Sprintf("netsim: NaN capacity scale for link %s", n.linkLabel(eid)))
	}
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	if n.linkScale == nil {
		if frac == 1 {
			return
		}
		n.linkScale = make([]float64, n.g.NumEdges())
		for i := range n.linkScale {
			n.linkScale[i] = 1
		}
	}
	if n.linkScale[eid] == frac {
		return
	}
	n.charge()
	n.linkScale[eid] = frac
	n.changed([]topology.EdgeID{eid})
}

// LinkScale returns the edge's current capacity scale (1 when healthy).
func (n *Network) LinkScale(eid topology.EdgeID) float64 {
	if n.linkScale == nil {
		return 1
	}
	return n.linkScale[eid]
}

// LinkDown reports whether the edge is currently blacked out (effective
// capacity zero).
func (n *Network) LinkDown(eid topology.EdgeID) bool {
	return n.effectiveCapacity(eid) <= 0
}

// effectiveCapacity is the edge's nominal capacity derated by any injected
// degradation.
func (n *Network) effectiveCapacity(eid topology.EdgeID) float64 {
	c := n.g.Edge(eid).Capacity
	if n.linkScale != nil {
		c *= n.linkScale[eid]
	}
	return c
}

// Engine returns the driving event engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// ActiveFlows returns the number of in-flight flows.
func (n *Network) ActiveFlows() int { return len(n.order) }

// StartFlow begins transferring size bytes along path. done (may be nil) runs
// when the last byte has crossed the last hop. A path with no edges (source
// == destination) completes after zero simulated time. The returned Flow can
// be cancelled with CancelFlow.
func (n *Network) StartFlow(path topology.Path, size int64, done func(*Flow)) *Flow {
	f := n.newFlow(path, size, nil, done)
	n.start(f)
	return f
}

// Inline, passed as a group's delay, runs the group's done inside the last
// flow's delivery instead of posting it.
const Inline sim.Time = -1

// group is a set of flows whose done runs once, when the last of them has
// delivered. The network recycles it then.
type group struct {
	pending int // flows started and not yet delivered
	delay   sim.Time
	done    func()
}

// StartGroup starts one flow of size bytes along each path, in order, and
// runs done once the last has delivered: inline, inside that delivery, if
// delay is Inline, and posted delay seconds later otherwise. The starts are
// held, so one reallocation over the union of the paths rates them all,
// with the rates and the timer one StartFlow per path would leave. The
// network holds the paths only until their flows deliver: it drops them
// before done runs, so from done on the caller may reuse their slices.
func (n *Network) StartGroup(paths []topology.Path, size int64, delay sim.Time, done func()) {
	if len(paths) == 0 {
		panic("netsim: empty flow group")
	}
	var g *group
	if k := len(n.freeGroups); k > 0 {
		g = n.freeGroups[k-1]
		n.freeGroups[k-1] = nil
		n.freeGroups = n.freeGroups[:k-1]
	} else {
		g = new(group)
	}
	g.pending, g.delay, g.done = len(paths), delay, done
	n.Hold()
	for _, p := range paths {
		n.start(n.newFlow(p, size, g, nil))
	}
	n.Release()
}

// Hold defers reallocation until the matching Release. While the network
// is held, each change — a flow's start, completion or cancellation, or a
// link rescale — records the edges it touched and reserves the sequence
// number its timer re-arm would take, and the network settles them all with
// one reallocation over the union of those edges. It settles at the last
// Release, or earlier when anything reads a rate: EdgeRate,
// EdgeUtilization, Flow.Rate, Flow.Remaining, a cancel or completion
// (which fix the leaving flow's rate), or a charge over elapsed time. Max-min
// rates depend only on the active set, so the settled rates are the ones
// eager reallocations would have left, and the timer is armed under the
// last change's number, where the last eager re-arm would have put it.
//
// Holds nest. A hold brackets changes made within one event: the engine
// must not step while a change is pending.
func (n *Network) Hold() { n.holds++ }

// Release ends a Hold. The last open Release settles the network.
func (n *Network) Release() {
	if n.holds <= 0 {
		panic("netsim: Release without Hold")
	}
	if n.holds--; n.holds == 0 {
		n.settle()
	}
}

// changed follows a change that touched edges: it reserves the sequence
// number the timer re-arm takes and reallocates, or, while the network is
// held, records edges for the settle.
func (n *Network) changed(edges []topology.EdgeID) {
	n.seq = n.eng.ReserveSeq(1)
	if n.holds > 0 {
		n.dirty = append(n.dirty, edges...)
		return
	}
	n.reallocate(edges)
}

// settle makes the one reallocation the pending changes of a held network
// owe, if any.
func (n *Network) settle() {
	if len(n.dirty) > 0 {
		n.reallocate(n.dirty)
		n.dirty = n.dirty[:0]
	}
}

// newFlow builds a flow, recycling a delivered group flow when it joins a
// group, and counts it as started.
func (n *Network) newFlow(path topology.Path, size int64, g *group, done func(*Flow)) *Flow {
	if size < 0 {
		panic(fmt.Sprintf("netsim: negative flow size %d", size))
	}
	var f *Flow
	if k := len(n.freeFlows); g != nil && k > 0 {
		f = n.freeFlows[k-1]
		n.freeFlows[k-1] = nil
		n.freeFlows = n.freeFlows[:k-1]
	} else {
		f = &Flow{net: n}
	}
	now := n.eng.Now()
	f.ID, f.Path, f.Size, f.Start = n.nextID, path, size, now
	f.remaining, f.rate, f.latency = float64(size), 0, 0
	f.done, f.group, f.cancelled = done, g, false
	n.nextID++
	for _, eid := range path.Edges {
		f.latency += n.g.Edge(eid).Latency
	}
	if n.tel != nil {
		n.tel.started.Inc()
		n.tel.flowBytes.Add(float64(size))
	}
	return f
}

// start puts one new flow on the network: an edgeless or empty flow only
// waits out its latency, any other joins the active set and reallocates.
func (n *Network) start(f *Flow) {
	if len(f.Path.Edges) == 0 || f.Size == 0 {
		// Nothing to serialize: deliver after the fixed latency only.
		n.eng.PostAfter(f.latency, n.deliverFn(f))
		return
	}
	n.charge()
	n.add(f)
	n.changed(f.Path.Edges)
}

// add joins f to the active sets. Its caller has just charged the network,
// so f's remaining bytes are as current as every other flow's.
func (n *Network) add(f *Flow) {
	f.active = true
	n.order = append(n.order, f) // IDs are monotonic: stays sorted
	if !n.ref {
		n.join(f)
	}
	for _, eid := range f.Path.Edges {
		if len(n.linkFlows[eid]) == 0 {
			n.busyPos[eid] = len(n.busy)
			n.busy = append(n.busy, eid)
		}
		n.linkFlows[eid] = append(n.linkFlows[eid], f)
	}
}

// join puts f into the class of its path, building the class when f is the
// path's only active flow. The class is looked up among those on the path's
// first edge: a link carries few distinct paths, so a scan beats hashing.
func (n *Network) join(f *Flow) {
	edges := f.Path.Edges
	var c *pathClass
	for _, x := range n.linkClasses[edges[0]] {
		if slices.Equal(x.edges, edges) {
			c = x
			break
		}
	}
	if c == nil {
		c = n.newClass(edges)
	}
	f.class = c
	c.insert(f)
}

// newClass builds an empty class for edges, recycling a freed one, and lists
// it as live and on each of its links.
func (n *Network) newClass(edges []topology.EdgeID) *pathClass {
	var c *pathClass
	if k := len(n.freeClasses); k > 0 {
		c = n.freeClasses[k-1]
		n.freeClasses[k-1] = nil
		n.freeClasses = n.freeClasses[:k-1]
	} else {
		c = &pathClass{}
		n.classes++
	}
	c.edges = append(c.edges[:0], edges...)
	c.livePos = len(n.live)
	n.live = append(n.live, c)
	for _, eid := range c.edges {
		lc := n.linkClasses[eid]
		if k := len(lc); k > 0 && lc[k-1] == c {
			continue // the path repeats eid: list the class once
		}
		n.linkClasses[eid] = append(lc, c)
	}
	return c
}

// insert puts f into c's (remaining, ID) order. f has the highest ID yet, so
// it goes after every flow with as many bytes left or fewer: at the back,
// unless it is smaller than the flows that joined before it.
func (c *pathClass) insert(f *Flow) {
	r, s := f.remaining, c.rem[c.head:]
	i := len(s)
	if i > 0 && s[i-1] > r {
		lo, hi := 0, i-1 // s[i-1] is known to sort after f
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); s[mid] > r {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		i = lo
	}
	if c.head > 0 && i < len(s)-i {
		// Nearer the front: slide the flows before f into the free slot.
		c.head--
		copy(c.flows[c.head:], c.flows[c.head+1:c.head+1+i])
		copy(c.rem[c.head:], s[:i])
		c.flows[c.head+i], c.rem[c.head+i] = f, r
		c.reindex(c.head, c.head+i+1)
		return
	}
	if c.head > 0 && c.head >= len(s) && len(c.flows) == cap(c.flows) {
		// At least half the array lies before the head: reuse it, not grow.
		k := copy(c.flows, c.flows[c.head:])
		copy(c.rem, s)
		clear(c.flows[k:])
		c.flows, c.rem, c.head = c.flows[:k], c.rem[:k], 0
		c.reindex(0, i)
	}
	at := c.head + i
	c.flows, c.rem = append(c.flows, nil), append(c.rem, 0)
	copy(c.flows[at+1:], c.flows[at:])
	copy(c.rem[at+1:], c.rem[at:])
	c.flows[at], c.rem[at] = f, r
	c.reindex(at, len(c.flows))
}

// reindex records the positions of c.flows[from:to] in the flows.
func (c *pathClass) reindex(from, to int) {
	for j := from; j < to; j++ {
		c.flows[j].classPos = j
	}
}

// leave takes f out of its class and frees the class when f was its last
// flow.
func (n *Network) leave(f *Flow) {
	c, i := f.class, f.classPos
	f.class, f.remaining, f.rate = nil, c.rem[i], c.rate
	last := len(c.flows) - 1
	if i-c.head < last-i {
		// Nearer the front: slide the flows before f up over its slot.
		copy(c.flows[c.head+1:], c.flows[c.head:i])
		copy(c.rem[c.head+1:], c.rem[c.head:i])
		c.flows[c.head] = nil
		c.head++
		c.reindex(c.head, i+1)
	} else {
		copy(c.flows[i:], c.flows[i+1:])
		copy(c.rem[i:], c.rem[i+1:])
		c.flows[last] = nil
		c.flows, c.rem = c.flows[:last], c.rem[:last]
		c.reindex(i, last)
	}
	if c.head < len(c.flows) {
		return
	}
	c.flows, c.rem, c.head = c.flows[:0], c.rem[:0], 0
	k := len(n.live) - 1
	moved := n.live[k]
	n.live[c.livePos], moved.livePos = moved, c.livePos
	n.live[k] = nil
	n.live = n.live[:k]
	for _, eid := range c.edges {
		lc := n.linkClasses[eid]
		for j, x := range lc {
			if x == c {
				k := len(lc) - 1
				lc[j] = lc[k]
				lc[k] = nil
				n.linkClasses[eid] = lc[:k]
				break
			}
		}
	}
	n.freeClasses = append(n.freeClasses, c)
}

func (n *Network) deliverFn(f *Flow) func() {
	if f.deliver == nil {
		f.deliver = func() { n.complete(f) }
	}
	return f.deliver
}

// CancelFlow aborts f without running its completion callback. Cancelling a
// finished or already-cancelled flow is a no-op.
func (n *Network) CancelFlow(f *Flow) {
	if f == nil || f.cancelled {
		return
	}
	if n.tel != nil {
		n.tel.cancelled.Inc()
	}
	if !f.active { // delivered, or never joined the active sets
		f.cancelled = true
		return
	}
	f.cancelled = true
	n.charge()
	n.remove(f)
	n.changed(f.Path.Edges)
}

// complete finishes a zero-edge flow or a flow whose serialization event
// fired.
func (n *Network) complete(f *Flow) {
	if f.cancelled {
		return
	}
	if n.tel != nil {
		n.tel.delivered.Inc()
		n.tel.flowDur.Observe(n.eng.Now() - f.Start)
	}
	if g := f.group; g != nil {
		f.Path, f.group = topology.Path{}, nil
		n.freeFlows = append(n.freeFlows, f)
		if g.pending--; g.pending == 0 {
			n.finishGroup(g)
		}
		return
	}
	if f.done != nil {
		f.done(f)
	}
}

// finishGroup recycles a group whose last flow delivered and runs or posts
// its done.
func (n *Network) finishGroup(g *group) {
	done, delay := g.done, g.delay
	g.done = nil
	n.freeGroups = append(n.freeGroups, g)
	if delay == Inline {
		done()
		return
	}
	n.eng.PostAfter(delay, done)
}

// remove detaches f from the active sets, after settling the network:
// leaving fixes the flow's rate.
func (n *Network) remove(f *Flow) {
	n.settle()
	for _, eid := range f.Path.Edges {
		lf := n.linkFlows[eid]
		for i, g := range lf {
			if g == f {
				last := len(lf) - 1
				lf[i] = lf[last]
				lf[last] = nil
				n.linkFlows[eid] = lf[:last]
				if last == 0 {
					n.unbusy(eid)
				}
				break
			}
		}
	}
	f.active = false
	if !n.ref {
		n.leave(f)
	}
	// Binary search by ID (hand-rolled: sort.Search's closure escapes).
	lo, hi := 0, len(n.order)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.order[mid].ID < f.ID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(n.order[lo:], n.order[lo+1:])
	n.order[len(n.order)-1] = nil
	n.order = n.order[:len(n.order)-1]
}

// unbusy swap-removes eid, whose last flow just left, from the busy list.
func (n *Network) unbusy(eid topology.EdgeID) {
	i, last := n.busyPos[eid], len(n.busy)-1
	moved := n.busy[last]
	n.busy[i] = moved
	n.busyPos[moved] = i
	n.busy = n.busy[:last]
}

// charge advances every active flow's progress to the current instant at its
// last computed rate and, with telemetry on, accrues the link byte counters
// and busy-seconds. Every active flow was last charged at lastCharge, so
// each moves rate*dt bytes, at the rates the network settles to first.
func (n *Network) charge() {
	now := n.eng.Now()
	dt := now - n.lastCharge
	if dt <= 0 {
		return
	}
	n.settle()
	n.lastCharge = now
	if n.ref {
		for _, f := range n.order {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	} else {
		for _, c := range n.live {
			if c.rate > 0 { // a stalled class moves no bytes
				c.charge(dt)
			}
		}
	}
	if n.tel == nil {
		return
	}
	// A link's counter adds its flows' bytes in ID order: float sums depend
	// on their order, and the exports pin it.
	for _, f := range n.order {
		moved := f.curRate() * dt
		for _, eid := range f.Path.Edges {
			n.tel.linkBytes[eid].Add(moved)
		}
	}
	// Each counter gets one Add(dt) per charge while its link is busy. The
	// counters are independent, so the list's order is unobservable.
	for _, eid := range n.busy {
		n.tel.linkBusy[eid].Add(dt)
	}
}

// charge takes the bytes its flows moved in dt off each of c's flows,
// clamping at zero. They share one rate, so each loses the same amount,
// which keeps them in order of remaining bytes but can tie two of them. A
// tie that leaves the higher ID in front is swapped back.
func (c *pathClass) charge(dt sim.Time) {
	moved := c.rate * dt
	last := -1.0 // the remaining bytes of the flow in front
	s := c.rem[c.head:]
	for i := range s {
		r := s[i] - moved
		if r < 0 {
			r = 0
		}
		s[i] = r
		if r == last {
			c.untie(c.head + i)
		}
		last = r
	}
}

// untie moves the flow at index j in front of the flows before it that have
// as many bytes left and a higher ID.
func (c *pathClass) untie(j int) {
	f, r := c.flows[j], c.rem[j]
	for ; j > c.head && c.rem[j-1] == r && c.flows[j-1].ID > f.ID; j-- {
		p := c.flows[j-1]
		c.flows[j], c.rem[j], p.classPos = p, r, j
	}
	c.flows[j], c.rem[j], f.classPos = f, r, j
}

// first returns the class's flow with the minimum (finish time, ID) at the
// class's rate, and that time. Finish times ascend with remaining bytes, so
// the flows tying with the head on finish time are a prefix of the class:
// runs of equal remaining bytes, each led by its lowest ID. Mostly that
// prefix is the head alone, or the whole class with one remainder.
func (c *pathClass) first(now sim.Time) (*Flow, sim.Time) {
	s, rem := c.members(), c.rem[c.head:]
	f := s[0]
	at := now + rem[0]/c.rate
	for i := 0; ; {
		// Find j, where the run of rem[i] ends.
		r, j := rem[i], i+1
		if j < len(rem) && rem[j] == r {
			last := len(rem) - 1
			if rem[last] == r {
				return f, at
			}
			for lo, hi := j+1, last; ; { // rem[hi] ends the run
				if lo == hi {
					j = lo
					break
				}
				if mid := int(uint(lo+hi) >> 1); rem[mid] > r {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
		}
		if j == len(rem) || now+rem[j]/c.rate != at {
			return f, at
		}
		if s[j].ID < f.ID {
			f = s[j]
		}
		i = j
	}
}

// reallocate recomputes flow rates by progressive water-filling (max-min
// fairness) and re-arms the completion timer under seq. dirty names the
// edges touched by the triggering changes (the changed flows' paths, or
// rescaled links); the fast path confines the rate recomputation to their
// connected components. The timer is re-armed from every active flow — on
// the fast path, from every live class's candidate, not just the recomputed
// ones — so the engine sees one and the same ScheduleSeq/Cancel call either
// way and FIFO tie-breaking stays bit-identical. Every change charged the
// network first, so the flows' remaining bytes are as of lastCharge, which
// times the timer.
func (n *Network) reallocate(dirty []topology.EdgeID) {
	if len(n.order) == 0 {
		n.eng.Cancel(n.timer) // the last flow left: nothing to time
		n.next = nil
		return
	}
	var tok int64
	if n.perf != nil {
		tok = n.perf.ReallocStart()
	}
	var links, flows, rounds int
	if n.ref {
		links, flows, rounds = n.refWaterfill()
	} else {
		links, flows, rounds = n.waterfillComponent(dirty)
	}
	if n.perf != nil {
		n.perf.ReallocDone(tok, links, flows, rounds)
	}
	// Arm the timer for the minimum (finish time, ID). Stalled flows (rate
	// 0) have no finish time until capacity frees up.
	now := n.lastCharge
	n.next = nil
	var at sim.Time
	if n.ref {
		// order is in ID order, so the strict < keeps the lowest ID among
		// equal times.
		for _, f := range n.order {
			if f.rate <= 0 {
				continue
			}
			if t := now + f.remaining/f.rate; n.next == nil || t < at {
				n.next, at = f, t
			}
		}
	} else {
		for _, c := range n.live {
			if c.rate <= 0 {
				continue
			}
			if f, t := c.first(now); n.next == nil || t < at || (t == at && f.ID < n.next.ID) {
				n.next, at = f, t
			}
		}
	}
	if n.next == nil {
		n.eng.Cancel(n.timer)
		return
	}
	// ScheduleSeq is Cancel + Schedule on the same Event, under the number
	// the last change reserved: nothing is allocated.
	n.timer = n.eng.ScheduleSeq(n.timer, at, n.seq, n.timerFn)
}

// refWaterfill is the reference allocator: a global progressive
// water-filling fixed point over every link and flow, rebuilt from scratch
// (fresh slices, a frozen map, a full edge scan per bottleneck round) on
// each reallocation. It reports the work done — loaded links, flows, and
// bottleneck rounds — for the perf probe.
func (n *Network) refWaterfill() (nLinks, nFlows, rounds int) {
	// Remaining capacity per link and unfrozen flow count per link, indexed
	// by edge id so the bottleneck scan below is deterministic (ties go to
	// the lowest edge id; a map here would break same-seed reproducibility).
	capLeft := make([]float64, len(n.linkFlows))
	count := make([]int, len(n.linkFlows))
	for eid, fl := range n.linkFlows {
		if len(fl) == 0 {
			continue
		}
		capLeft[eid] = n.effectiveCapacity(topology.EdgeID(eid))
		count[eid] = len(fl)
		nLinks++
	}
	frozen := make(map[FlowID]bool, len(n.order))
	nFlows = len(n.order)

	for len(frozen) < len(n.order) {
		// Find the most constrained link: min fair share among links that
		// still carry unfrozen flows.
		bestShare := math.Inf(1)
		bestLink := topology.EdgeID(-1)
		for eid, c := range count {
			if c == 0 {
				continue
			}
			share := capLeft[eid] / float64(c)
			if share < bestShare {
				bestShare = share
				bestLink = topology.EdgeID(eid)
			}
		}
		if bestLink < 0 {
			// No constrained links left (all remaining flows are zero-edge,
			// which cannot happen here) — freeze the rest at infinity guard.
			break
		}
		rounds++
		// Freeze every unfrozen flow on the bottleneck link at the share.
		for _, f := range n.linkFlows[bestLink] {
			if frozen[f.ID] {
				continue
			}
			frozen[f.ID] = true
			f.rate = bestShare
			for _, eid := range f.Path.Edges {
				capLeft[eid] -= bestShare
				if capLeft[eid] < 0 {
					capLeft[eid] = 0
				}
				count[eid]--
			}
		}
	}
	return nLinks, nFlows, rounds
}

// waterfillComponent is the fast allocator. Max-min rates decompose over
// connected components of the link-sharing graph: a change confined to one
// component cannot move any other component's fixed point. So it BFSes the
// component reachable from the dirty edges (through the path classes of the
// active flows), then runs the same progressive filling as the reference,
// restricted to that component, over classes instead of flows. The rates are
// bit-identical to the reference's (DESIGN.md, "Path classes"):
//
//  1. Flows on the same edge sequence cross the same links, so they are
//     always frozen in the same round at the same share.
//  2. Within a round every subtraction from a link's capLeft is the same
//     bestShare, so their order is unobservable: applying a class's m
//     subtractions, with the clamp, in a tight loop reproduces the reference's
//     float sequence exactly (m*share would not).
//  3. capLeft and count are scratch: a link whose count drops to 0 is never
//     read again, and in the round whose bottleneck carries every remaining
//     unfrozen flow, nothing is read again at all.
//
// Each class takes the share it froze at as its rate, which its flows run at.
// Classes elsewhere keep their previously computed (still exact) rates.
// Scratch is epoch-stamped: no clearing, no allocation once the slices have
// grown to the component's size. It reports the component's size — links,
// flows, bottleneck rounds — for the perf probe; the distribution of these
// is exactly what quantifies how much work the incremental path avoids
// versus the reference's global recomputation.
func (n *Network) waterfillComponent(dirty []topology.EdgeID) (nLinks, nFlows, rounds int) {
	n.epoch++
	ep := n.epoch
	links := n.compLinks[:0]
	queue := n.linkQueue[:0]
	for _, eid := range dirty {
		if len(n.linkClasses[eid]) == 0 || n.linkEpoch[eid] == ep {
			continue
		}
		n.linkEpoch[eid] = ep
		queue = append(queue, eid)
	}
	compFlows := 0
	for len(queue) > 0 {
		eid := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		links = append(links, eid)
		n.capLeft[eid] = n.effectiveCapacity(eid)
		n.count[eid] = len(n.linkFlows[eid])
		for _, c := range n.linkClasses[eid] {
			if c.compEpoch == ep {
				continue
			}
			c.compEpoch = ep
			compFlows += c.size()
			for _, e2 := range c.edges {
				if n.linkEpoch[e2] != ep { // c's flows keep e2 busy
					n.linkEpoch[e2] = ep
					queue = append(queue, e2)
				}
			}
		}
	}
	n.compLinks = links // keep grown capacity for reuse
	n.linkQueue = queue[:0]
	nLinks = len(links)
	nFlows = compFlows

	frozen := 0
	for frozen < compFlows {
		// Most constrained component link. links is in BFS order, so the
		// reference path's lowest-edge-id tie-break is made explicit here:
		// the result is the lexicographic minimum of (share, edge id),
		// exactly what the reference's ascending strict-< scan selects.
		bestShare := math.Inf(1)
		bestLink := topology.EdgeID(-1)
		for _, eid := range links {
			c := n.count[eid]
			if c == 0 {
				continue
			}
			share := n.capLeft[eid] / float64(c)
			if share < bestShare || (share == bestShare && eid < bestLink) {
				bestShare = share
				bestLink = eid
			}
		}
		if bestLink < 0 {
			break
		}
		rounds++
		on := n.linkClasses[bestLink]
		for _, c := range on {
			if c.frozenEpoch != ep {
				frozen += c.size()
			}
		}
		last := frozen == compFlows // no later round reads capLeft or count
		for _, c := range on {
			if c.frozenEpoch == ep {
				continue
			}
			c.frozenEpoch = ep
			c.rate = bestShare
			if last {
				continue
			}
			m := c.size()
			for _, eid := range c.edges {
				left := n.count[eid] - m
				n.count[eid] = left
				if left == 0 {
					continue
				}
				x := n.capLeft[eid]
				for i := 0; i < m; i++ {
					if x -= bestShare; x < 0 {
						x = 0
					}
				}
				n.capLeft[eid] = x
			}
		}
	}
	return nLinks, nFlows, rounds
}

// finishFlow handles a serialization-complete event: account the final
// progress, detach the flow, rebalance, and deliver the payload after the
// path's fixed latency.
func (n *Network) finishFlow(f *Flow) {
	n.charge()
	n.remove(f)
	f.remaining = 0
	n.changed(f.Path.Edges)
	if f.latency > 0 {
		n.eng.PostAfter(f.latency, n.deliverFn(f))
	} else {
		n.complete(f)
	}
}

// EdgeRate returns the instantaneous sum of flow rates on the edge, in
// bytes/second. On a held network it settles the pending changes first.
func (n *Network) EdgeRate(eid topology.EdgeID) float64 {
	n.settle()
	var sum float64
	for _, f := range n.linkFlows[eid] {
		sum += f.curRate()
	}
	return sum
}

// EdgeUtilization returns the instantaneous utilization of the edge in
// [0, 1]: the paper's monitored bandwidth-utilization ratio B(e*)/C(e),
// measured against the effective (possibly fault-degraded) capacity. A
// blacked-out link reports +Inf: it is infinitely utilized from the
// scheduler's point of view, so every policy crossing it prices out.
func (n *Network) EdgeUtilization(eid topology.EdgeID) float64 {
	c := n.effectiveCapacity(eid)
	if c <= 0 {
		return math.Inf(1)
	}
	return n.EdgeRate(eid) / c
}
