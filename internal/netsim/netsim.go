// Package netsim is a flow-level simulator of the heterogeneous cluster
// network. Concurrent transfers ("flows") traverse paths from the topology
// graph and share every link max-min fairly; whenever a flow starts or
// finishes, all rates are recomputed by progressive water-filling and the
// network's completion timer is re-armed on the discrete-event engine.
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
// (flows elsewhere keep their — still exact — rates), walks flows through a
// maintained ID-ordered index instead of sorting the flow map, and reuses
// epoch-stamped scratch buffers so a steady-state reallocation performs no
// heap allocation of its own. NewReference keeps the original global
// fixed-point recomputation. Both produce bit-identical rates, completion
// times, and event orderings — the fast path deliberately issues the same
// engine Schedule/Reschedule/Cancel sequence, so FIFO tie-breaks cannot
// drift — proven over long randomized scripts by differential_test.go and
// fuzzed for max-min invariants by FuzzReallocate.
//
// Completions are driven by one engine event per Network, not one per flow.
// After every reallocation a single ID-ordered scan arms that timer for the
// flow with the minimum (finish time, ID), with sim.Engine.Reschedule, so
// re-arming allocates nothing; with every flow stalled, the timer is
// cancelled. This pops completions in exactly the order per-flow events
// would: those would all be re-timed in ID order by the same reallocation,
// so they would hold one consecutive block of sequence numbers, pop in
// (time, ID) order, and tie with any other event on whether it was queued
// before or after that reallocation — which is where the one timer's
// sequence number puts it too. Only the block's first event could ever fire:
// the completion it triggers reallocates, which re-times all the others.
package netsim

import (
	"fmt"
	"math"
	"sort"

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

	remaining float64 // bytes left to serialize
	rate      float64 // current max-min rate, bytes/s
	lastT     sim.Time
	latency   float64 // fixed path latency, applied after serialization
	done      func(*Flow)
	net       *Network
	cancelled bool

	// Fast-path water-filling state, valid only while the owning Network's
	// epoch matches (no clearing pass between reallocations).
	compEpoch   uint64
	frozenEpoch uint64
}

// Rate returns the flow's current max-min fair rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Remaining returns the bytes not yet serialized.
func (f *Flow) Remaining() float64 { return f.remaining }

// Network simulates flows over a topology graph.
type Network struct {
	g   *topology.Graph
	eng *sim.Engine

	// ref selects the reference (global, allocating) water-filling path.
	ref bool

	flows     map[FlowID]*Flow
	order     []*Flow   // active flows in ascending ID order (fast path index)
	linkFlows [][]*Flow // edge id -> active flows crossing it
	nextID    FlowID

	// busy lists the edges with at least one active flow, in no particular
	// order; busyPos[eid] is eid's index in busy, meaningful only while
	// linkFlows[eid] is non-empty. Charging busy-seconds walks this list, so
	// it costs the links in use, not the whole topology.
	busy    []topology.EdgeID
	busyPos []int

	// The completion timer: one engine event for the whole network, armed
	// for next, the active flow that finishes first, and re-armed at the end
	// of every reallocation. timerFn is built once, so re-arming allocates
	// nothing.
	timer   *sim.Event
	next    *Flow
	timerFn func()

	// linkScale scales each edge's capacity for fault injection: 1 is a
	// healthy link, 0 a blacked-out one. Lazily allocated by SetLinkScale so
	// fault-free simulations pay nothing.
	linkScale []float64

	// Telemetry, indexed by edge id.
	bytesCarried []float64 // cumulative, the "hardware counters" of §IV
	lastCharge   sim.Time

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
	dirtyOne  [1]topology.EdgeID
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
	linkBytes []*telemetry.Counter // bytes serialized, per edge
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
		g:            g,
		eng:          eng,
		flows:        make(map[FlowID]*Flow),
		linkFlows:    make([][]*Flow, g.NumEdges()),
		busyPos:      make([]int, g.NumEdges()),
		bytesCarried: make([]float64, g.NumEdges()),
	}
	n.timerFn = func() { n.finishFlow(n.next) }
	return n
}

// Graph returns the underlying topology graph.
func (n *Network) Graph() *topology.Graph { return n.g }

// SetLinkScale scales the effective capacity of an edge to frac of its
// nominal capacity (1 = healthy, 0 = blackout). All flow rates are
// recomputed immediately: flows crossing a blacked-out link stall at rate
// zero until the link recovers. frac outside [0, 1] is clamped.
func (n *Network) SetLinkScale(eid topology.EdgeID, frac float64) {
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
	n.dirtyOne[0] = eid
	n.reallocate(n.dirtyOne[:])
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
func (n *Network) ActiveFlows() int { return len(n.flows) }

// StartFlow begins transferring size bytes along path. done (may be nil) runs
// when the last byte has crossed the last hop. A path with no edges (source
// == destination) completes after zero simulated time. The returned Flow can
// be cancelled with CancelFlow.
func (n *Network) StartFlow(path topology.Path, size int64, done func(*Flow)) *Flow {
	if size < 0 {
		panic(fmt.Sprintf("netsim: negative flow size %d", size))
	}
	f := &Flow{
		ID:        n.nextID,
		Path:      path,
		Size:      size,
		Start:     n.eng.Now(),
		remaining: float64(size),
		lastT:     n.eng.Now(),
		done:      done,
	}
	n.nextID++
	for _, eid := range path.Edges {
		f.latency += n.g.Edge(eid).Latency
	}
	f.net = n
	if n.tel != nil {
		n.tel.started.Inc()
		n.tel.flowBytes.Add(float64(size))
	}

	if len(path.Edges) == 0 || size == 0 {
		// Nothing to serialize: deliver after the fixed latency only.
		n.eng.After(f.latency, func() { n.complete(f) })
		return f
	}

	n.charge()
	n.flows[f.ID] = f
	if !n.ref {
		n.order = append(n.order, f) // IDs are monotonic: stays sorted
	}
	for _, eid := range path.Edges {
		if len(n.linkFlows[eid]) == 0 {
			n.busyPos[eid] = len(n.busy)
			n.busy = append(n.busy, eid)
		}
		n.linkFlows[eid] = append(n.linkFlows[eid], f)
	}
	n.reallocate(f.Path.Edges)
	return f
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
	if _, active := n.flows[f.ID]; !active {
		f.cancelled = true
		return
	}
	f.cancelled = true
	n.charge()
	n.remove(f)
	n.reallocate(f.Path.Edges)
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
	if f.done != nil {
		f.done(f)
	}
}

// remove detaches f from the active sets.
func (n *Network) remove(f *Flow) {
	delete(n.flows, f.ID)
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
	if !n.ref {
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
		if lo < len(n.order) && n.order[lo] == f {
			copy(n.order[lo:], n.order[lo+1:])
			n.order[len(n.order)-1] = nil
			n.order = n.order[:len(n.order)-1]
		}
	}
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
// last computed rate, and accrues link byte counters and busy-seconds.
func (n *Network) charge() {
	now := n.eng.Now()
	dt := now - n.lastCharge
	n.lastCharge = now
	if dt <= 0 {
		return
	}
	active := n.order
	if n.ref {
		active = n.orderedFlows()
	}
	for _, f := range active {
		moved := f.rate * (now - f.lastT)
		f.remaining -= moved
		if f.remaining < 0 {
			f.remaining = 0
		}
		f.lastT = now
		for _, eid := range f.Path.Edges {
			n.bytesCarried[eid] += moved
			if n.tel != nil {
				n.tel.linkBytes[eid].Add(moved)
			}
		}
	}
	if n.tel != nil {
		// Each counter gets one Add(dt) per charge while its link is busy.
		// The counters are independent, so the list's order is unobservable.
		for _, eid := range n.busy {
			n.tel.linkBusy[eid].Add(dt)
		}
	}
}

// orderedFlows returns the active flows sorted by ID (reference path only;
// the fast path maintains the same ordering incrementally in n.order). Map
// iteration order is randomized per run, so every loop whose float
// accumulation or event scheduling order is observable must walk flows in a
// deterministic order — otherwise same-seed simulations diverge.
func (n *Network) orderedFlows() []*Flow {
	out := make([]*Flow, 0, len(n.flows))
	for _, f := range n.flows {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// reallocate recomputes flow rates by progressive water-filling (max-min
// fairness) and re-arms the completion timer. dirty names the edges touched
// by the triggering change (the changed flow's path, or a rescaled link);
// the fast path confines the rate recomputation to their connected
// component. The timer is re-armed from every active flow on both paths —
// not just the recomputed ones — so the engine sees one and the same
// Schedule/Reschedule/Cancel call either way and FIFO tie-breaking stays
// bit-identical.
func (n *Network) reallocate(dirty []topology.EdgeID) {
	if len(n.flows) == 0 {
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
	active := n.order
	if n.ref {
		active = n.orderedFlows()
	}
	// Arm the timer for the minimum (finish time, ID). active is in ID
	// order, so the strict < keeps the lowest ID among equal times. Stalled
	// flows (rate 0) have no finish time until capacity frees up.
	now := n.eng.Now()
	n.next = nil
	var at sim.Time
	for _, f := range active {
		if f.rate <= 0 {
			continue
		}
		if t := now + f.remaining/f.rate; n.next == nil || t < at {
			n.next, at = f, t
		}
	}
	switch {
	case n.next == nil:
		n.eng.Cancel(n.timer)
	case n.timer == nil:
		n.timer = n.eng.Schedule(at, n.timerFn)
	default:
		// Reschedule is Cancel + Schedule on the same Event: the timer takes
		// a fresh sequence number, and nothing is allocated.
		n.eng.Reschedule(n.timer, at)
	}
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
	frozen := make(map[FlowID]bool, len(n.flows))
	nFlows = len(n.flows)

	for len(frozen) < len(n.flows) {
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
// component reachable from the dirty edges (through currently active flows),
// then runs the same progressive filling as the reference — identical
// iteration orders over the same slices, hence bit-identical arithmetic —
// restricted to that component. Flows elsewhere keep their previously
// computed (still exact) rates. Scratch is epoch-stamped: no clearing, no
// allocation once the slices have grown to the component's size. It reports
// the component's size — links, flows, bottleneck rounds — for the perf
// probe; the distribution of these is exactly what quantifies how much work
// the incremental path avoids versus the reference's global recomputation.
func (n *Network) waterfillComponent(dirty []topology.EdgeID) (nLinks, nFlows, rounds int) {
	n.epoch++
	ep := n.epoch
	links := n.compLinks[:0]
	queue := n.linkQueue[:0]
	for _, eid := range dirty {
		if len(n.linkFlows[eid]) == 0 || n.linkEpoch[eid] == ep {
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
		for _, f := range n.linkFlows[eid] {
			if f.compEpoch == ep {
				continue
			}
			f.compEpoch = ep
			compFlows++
			for _, e2 := range f.Path.Edges {
				if n.linkEpoch[e2] != ep && len(n.linkFlows[e2]) > 0 {
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
		for _, f := range n.linkFlows[bestLink] {
			if f.frozenEpoch == ep {
				continue
			}
			f.frozenEpoch = ep
			f.rate = bestShare
			frozen++
			for _, eid := range f.Path.Edges {
				n.capLeft[eid] -= bestShare
				if n.capLeft[eid] < 0 {
					n.capLeft[eid] = 0
				}
				n.count[eid]--
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
	f.remaining = 0
	n.remove(f)
	n.reallocate(f.Path.Edges)
	if f.latency > 0 {
		n.eng.After(f.latency, func() { n.complete(f) })
	} else {
		n.complete(f)
	}
}

// EdgeRate returns the instantaneous sum of flow rates on the edge, in
// bytes/second.
func (n *Network) EdgeRate(eid topology.EdgeID) float64 {
	var sum float64
	for _, f := range n.linkFlows[eid] {
		sum += f.rate
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

// AvailableBW returns the effective edge capacity minus the current flow
// rates — the live counterpart of the topology's static Available field.
func (n *Network) AvailableBW(eid topology.EdgeID) float64 {
	avail := n.effectiveCapacity(eid) - n.EdgeRate(eid)
	if avail < 0 {
		return 0
	}
	return avail
}

// BytesCarried returns the cumulative bytes the edge has carried: the
// simulated equivalent of the switch hardware counters polled by the control
// plane (§IV). Progress is charged lazily; the value is exact as of the last
// flow event and slightly stale between events.
func (n *Network) BytesCarried(eid topology.EdgeID) float64 {
	return n.bytesCarried[eid]
}

// SyncAvailable copies the live available bandwidth of every edge into the
// topology graph's Available fields, so that planner-style computations on
// the graph see current load. Call it from a periodic monitor event.
func (n *Network) SyncAvailable() {
	for i := 0; i < n.g.NumEdges(); i++ {
		eid := topology.EdgeID(i)
		n.g.Edge(eid).Available = n.AvailableBW(eid)
	}
}
