package collective

import (
	"fmt"
	"math"

	"heroserve/internal/netsim"
	"heroserve/internal/sim"
	"heroserve/internal/switchsim"
	"heroserve/internal/telemetry"
	"heroserve/internal/topology"
)

// CommEntryBytes is the aggregation payload per packet used by the simulated
// data planes (M_ina in Table I). 1 KiB keeps a 64-slot window
// link-saturating at 100 GbE with the testbed's ~5 us switch RTT.
const CommEntryBytes = 1024

// DefaultSlotWindow is the aggregator-slot window a synchronous INA job
// requests from the control plane: 128 KiB in flight keeps a ~10 us switch
// RTT pipe full at 100 GbE, and a 512-slot pool still serves four
// concurrent jobs.
const DefaultSlotWindow = 128

// maxAsyncPenalty caps the ATP fallback degradation factor.
const maxAsyncPenalty = 0.8

// asyncBaseOverhead is ATP's intrinsic goodput overhead relative to
// reservation-based synchronous aggregation, even without contention: the
// end host must track per-chunk completion and handle best-effort losses
// (ATP reaches ~90-95% of SwitchML's single-job goodput in the literature).
const asyncBaseOverhead = 0.05

// rebootFallbackFactor inflates the slot-window goodput cap of an INA
// operation whose switch rebooted mid-flight: outstanding chunks time out
// and are re-aggregated on an end host (the ATP-style fallback path), which
// runs at host-NIC processing speed rather than switch line rate and first
// has to wait out the per-chunk timeouts. The net effect is roughly a
// quarter of the reserved-window goodput.
const rebootFallbackFactor = 4.0

// Counters tallies the communication operations executed, for tests and for
// the experiment reports.
type Counters struct {
	RingOps        int64
	INASyncOps     int64
	INAAsyncOps    int64
	HeteroOps      int64
	Transfers      int64
	SlotFallbacks  int64 // sync INA ops demoted to ring for lack of slots
	FaultFallbacks int64 // in-flight INA ops demoted to host aggregation by a switch fault
	BytesMoved     int64 // payload bytes entering the network (pre-replication)
}

// Comm executes collective operations over the flow-level network simulator,
// exercising the switch data planes for in-network aggregation.
type Comm struct {
	net      *netsim.Network
	router   Router
	switches map[topology.NodeID]*switchsim.Switch
	nextJob  switchsim.JobID

	// activeAsync counts in-flight asynchronous INA jobs per switch, for the
	// ATP contention model.
	activeAsync map[topology.NodeID]int

	// inflightINA tracks the in-flight INA operations per switch so that a
	// switch fault can demote them to the host-aggregation fallback path.
	inflightINA map[topology.NodeID]map[*inaParams]bool

	counters Counters

	// static is router when it is a *StaticRouter, and nil otherwise. Under
	// it, launches read their phases' paths from the group's route cache.
	static *StaticRouter
	// scratch holds the paths of one launch under any other router; flows
	// copy the Path values they start with, so it is reused on the next
	// launch.
	scratch pathList
	// freeINA and freeHetero recycle finished INA and heterogeneous
	// operations along with their phase callbacks; dpVals is
	// exerciseDataPlane's packet payload.
	freeINA    []*inaParams
	freeHetero []*heteroOp
	dpVals     [4]int32

	// Telemetry (nil when off). asyncSeq numbers the async trace spans that
	// bracket every dispatched all-reduce; spanArgs is the allreduce span's
	// argument buffer, reused by every launch, and freeEnds recycles the
	// callbacks that close the spans.
	tel               *telemetry.Hub
	telOps            [4]*telemetry.Counter // indexed by Scheme
	telTransfers      *telemetry.Counter
	telBytes          *telemetry.Counter
	telSlotFallbacks  *telemetry.Counter
	telFaultFallbacks *telemetry.Counter
	asyncSeq          int64
	spanArgs          telemetry.Args
	freeEnds          []*spanEnd
}

// spanEnd closes one async span, an all-reduce's or a transfer's, and then
// runs the op's done. It goes back to its Comm's free list before done
// runs, with run, its callback, built once per value.
type spanEnd struct {
	c         *Comm
	cat, name string
	id        string // the span's id as AsyncBegin formatted it
	inner     func()
	run       func()
}

func (e *spanEnd) end() {
	c, cat, name, id, inner := e.c, e.cat, e.name, e.id, e.inner
	e.inner = nil
	c.freeEnds = append(c.freeEnds, e)
	c.tel.Trace.AsyncEnd(cat, name, id)
	inner()
}

// beginSpan opens an async span and returns a closer, taken off the free
// list or built, that ends it and then runs inner.
func (c *Comm) beginSpan(cat, name string, args telemetry.Args, inner func()) func() {
	c.asyncSeq++
	id := c.tel.Trace.AsyncBegin(cat, name, c.asyncSeq, args)
	var e *spanEnd
	if k := len(c.freeEnds); k > 0 {
		e = c.freeEnds[k-1]
		c.freeEnds[k-1] = nil
		c.freeEnds = c.freeEnds[:k-1]
	} else {
		e = &spanEnd{c: c}
		e.run = e.end
	}
	e.cat, e.name, e.id, e.inner = cat, name, id, inner
	return e.run
}

// SetTelemetry arms collective metrics and spans, and cascades to every
// switch data plane.
func (c *Comm) SetTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	c.tel = h
	m := h.Metrics
	for _, s := range []Scheme{SchemeRing, SchemeINASync, SchemeINAAsync, SchemeHetero} {
		c.telOps[s] = m.Counter("collective_ops_total",
			"All-reduce operations executed, by scheme.", []string{"scheme"}, s.String())
	}
	c.telTransfers = m.Counter("collective_transfers_total",
		"Point-to-point transfers (activations, KV cache).", nil)
	c.telBytes = m.Counter("collective_bytes_moved_total",
		"Payload bytes entering the network (pre-replication).", nil)
	c.telSlotFallbacks = m.Counter("collective_slot_fallbacks_total",
		"Sync INA ops demoted to ring for lack of aggregator slots.", nil)
	c.telFaultFallbacks = m.Counter("collective_fault_fallbacks_total",
		"In-flight INA ops demoted to host aggregation by a switch fault.", nil)
	for _, ds := range c.switches {
		ds.SetTelemetry(h)
	}
}

// Telemetry returns the hub armed by SetTelemetry (nil when telemetry is
// off). The online scheduler reads it to publish its decision audit.
func (c *Comm) Telemetry() *telemetry.Hub { return c.tel }

// switchName labels a switch node for metrics/trace args.
func (c *Comm) switchName(sw topology.NodeID) string {
	if sw < 0 || int(sw) >= c.net.Graph().NumNodes() {
		return "none"
	}
	if n := c.net.Graph().Node(sw).Name; n != "" {
		return n
	}
	return fmt.Sprintf("n%d", sw)
}

// NewComm returns a Comm over the network, instantiating one switch data
// plane per INA-capable switch node (INASlots > 0).
func NewComm(net *netsim.Network, router Router) *Comm {
	c := &Comm{
		net:         net,
		router:      router,
		switches:    make(map[topology.NodeID]*switchsim.Switch),
		activeAsync: make(map[topology.NodeID]int),
		inflightINA: make(map[topology.NodeID]map[*inaParams]bool),
	}
	c.static, _ = router.(*StaticRouter)
	g := net.Graph()
	for _, s := range g.Switches() {
		n := g.Node(s)
		if n.INASlots > 0 {
			c.switches[s] = switchsim.New(n.Name, n.INASlots, CommEntryBytes)
		}
	}
	return c
}

// Counters returns a snapshot of the op counters.
func (c *Comm) Counters() Counters { return c.counters }

// Switch returns the data plane of the given switch node (nil if the node is
// not INA-capable).
func (c *Comm) Switch(sw topology.NodeID) *switchsim.Switch { return c.switches[sw] }

// Router returns the router in use.
func (c *Comm) Router() Router { return c.router }

// Network returns the underlying flow simulator.
func (c *Comm) Network() *netsim.Network { return c.net }

// route resolves a path or panics: unroutable pairs inside a planned
// deployment are a planner bug, not a runtime condition.
func (c *Comm) route(a, b topology.NodeID, size int64) topology.Path {
	p, ok := c.router.Route(a, b, size)
	if !ok {
		panic(fmt.Sprintf("collective: no route %d -> %d", a, b))
	}
	return p
}

// Transfer moves bytes from one node to another (pipeline activations,
// KV-cache migration) and calls done on delivery. The flow is a one-flow
// group, so the network recycles it.
func (c *Comm) Transfer(from, to topology.NodeID, bytes int64, done func()) {
	c.counters.Transfers++
	c.counters.BytesMoved += bytes
	c.telTransfers.Inc()
	c.telBytes.Add(float64(bytes))
	if from == to {
		c.net.Engine().PostAfter(0, done)
		return
	}
	c.net.StartGroup([]topology.Path{c.route(from, to, bytes)}, bytes, netsim.Inline, done)
}

// TransferSpan is Transfer bracketed by an async trace span (matching the
// all-reduce bracketing in AllReduce), for moves that deserve their own named
// lane in the exported trace — pipeline-stage activation hand-offs use it so
// they stop appearing as anonymous netsim flows.
func (c *Comm) TransferSpan(cat, name string, args telemetry.Args, from, to topology.NodeID, bytes int64, done func()) {
	if c.tel != nil {
		done = c.beginSpan(cat, name, args, done)
	}
	c.Transfer(from, to, bytes, done)
}

// pathLatency sums the fixed latency of a path's edges.
func (c *Comm) pathLatency(p topology.Path) float64 {
	var lat float64
	for _, eid := range p.Edges {
		lat += c.net.Graph().Edge(eid).Latency
	}
	return lat
}

// add routes a to b for size bytes onto the list.
func (l *pathList) add(c *Comm, a, b topology.NodeID, size int64) {
	p := c.route(a, b, size)
	l.paths = append(l.paths, p)
	if lat := c.pathLatency(p); lat > l.maxLat {
		l.maxLat = lat
	}
}

// phasePaths returns the path list of one phase of a launch on grp, n
// flows of size bytes, and whether it is already filled. Under the static
// router that is the group's list for key at size's class; under any other
// router it is the Comm's emptied scratch list, to be routed afresh.
func (c *Comm) phasePaths(grp *Group, key phaseKey, size int64, n int) (*pathList, bool) {
	if c.static == nil {
		c.scratch.paths, c.scratch.maxLat = c.scratch.paths[:0], 0
		return &c.scratch, false
	}
	if grp.routes == nil || grp.routes.router != c.static {
		grp.routes = &routeCache{router: c.static}
	}
	key.class, _ = sizeClass(size)
	return grp.routes.lookup(key, n)
}

// ringPaths returns the group's ring segments for size bytes.
func (c *Comm) ringPaths(grp *Group, size int64) *pathList {
	l, ok := c.phasePaths(grp, phaseKey{phase: phaseRing}, size, len(grp.ring))
	if !ok {
		order, p := grp.ring, len(grp.ring)
		for i := range order {
			l.add(c, order[i], order[(i+1)%p], size)
		}
	}
	return l
}

// inaPaths returns the group's member -> switch paths for size bytes.
func (c *Comm) inaPaths(grp *Group, sw topology.NodeID, size int64) *pathList {
	l, ok := c.phasePaths(grp, phaseKey{phase: phaseINA, sw: sw}, size, len(grp.members))
	if !ok {
		for _, k := range grp.members {
			l.add(c, k, sw, size)
		}
	}
	return l
}

// RingAllReduce performs steps sequential ring all-reduce steps of msgBytes
// each over the group, folded into one flow round: every GPU streams its
// total ring traffic, steps * 2(P-1)/P * msgBytes, to its ring successor;
// the remaining sequential-step fill latency is added as a fixed delay. done
// runs when the slowest segment finishes.
func (c *Comm) RingAllReduce(grp *Group, msgBytes int64, steps int, done func()) {
	c.counters.RingOps++
	c.telOps[SchemeRing].Inc()
	p := grp.Size()
	if p <= 1 || msgBytes == 0 || steps == 0 {
		c.net.Engine().PostAfter(0, done)
		return
	}
	// Each GPU streams its total ring traffic, derated by the ring protocol
	// efficiency (extra bytes model the chunking/pipeline overhead).
	total := int64(float64(steps) * 2 * float64(p-1) / float64(p) * float64(msgBytes) / RingEfficiency)
	c.counters.BytesMoved += total * int64(p)
	c.telBytes.Add(float64(total * int64(p)))

	// Fill latency: each step crosses 2(P-1) sequential segment latencies;
	// each flow already pays its own path latency once.
	l := c.ringPaths(grp, total)
	fill := float64(steps*2*(p-1)-1) * l.maxLat
	if fill < 0 {
		fill = 0
	}
	c.net.StartGroup(l.paths, total, fill, done)
}

// inaParams captures the slot-window throughput model of one INA op and
// carries the op through its phases. Ops are tracked by pointer while in
// flight so a switch fault can mutate their penalty (the host-aggregation
// fallback) mid-operation. A finished op goes back to its Comm's free list
// with its phase callbacks, which are built once per op value.
type inaParams struct {
	sw      *switchsim.Switch
	swNode  topology.NodeID
	job     switchsim.JobID
	mode    switchsim.Mode
	window  int
	penalty float64 // >= 1; async/fault fallback degradation
	rtt     float64
	faulted bool // the switch failed mid-op; penalty already inflated

	c         *Comm
	paths     []topology.Path // member -> switch, used by both phases
	total     int64           // logical payload per member
	flowTotal int64           // total inflated by the penalty
	start     sim.Time
	done      func()

	distributeFn, finishFn, releaseFn func()
}

// prepareINA registers a job on the switch data plane and derives the
// effective window/penalty. ok is false when the switch is absent or
// offline, or when a synchronous job cannot get any aggregator slots (the
// caller falls back to ring).
func (c *Comm) prepareINA(sw topology.NodeID, fanIn int, mode switchsim.Mode, rtt float64) (*inaParams, bool) {
	ds := c.switches[sw]
	if ds == nil || !ds.Online() {
		return nil, false
	}
	c.nextJob++
	job := c.nextJob
	granted, err := ds.RegisterJob(job, mode, fanIn, DefaultSlotWindow)
	if err != nil {
		panic(fmt.Sprintf("collective: register INA job: %v", err))
	}
	if mode == switchsim.ModeSync && granted == 0 {
		ds.ReleaseJob(job)
		return nil, false
	}
	p := c.newINA()
	p.sw, p.swNode, p.job, p.mode, p.rtt, p.faulted = ds, sw, job, mode, rtt, false
	if mode == switchsim.ModeSync {
		p.window = granted
		p.penalty = 1
	} else {
		// ATP shares the pool opportunistically; contention from other
		// in-flight async jobs produces host-aggregation fallbacks. A
		// collision costs one chunk's fallback re-send, so roughly half the
		// colliding fraction becomes extra traffic.
		active := c.activeAsync[sw]
		p.window = DefaultSlotWindow
		collide := float64(active*DefaultSlotWindow) / float64(2*ds.PoolSize())
		if collide > maxAsyncPenalty {
			collide = maxAsyncPenalty
		}
		p.penalty = 1 + asyncBaseOverhead + collide
		c.activeAsync[sw]++
	}
	ops := c.inflightINA[sw]
	if ops == nil {
		ops = make(map[*inaParams]bool)
		c.inflightINA[sw] = ops
	}
	ops[p] = true
	return p, true
}

// newINA takes an op off the free list, or builds one with its phase
// callbacks.
func (c *Comm) newINA() *inaParams {
	if k := len(c.freeINA); k > 0 {
		p := c.freeINA[k-1]
		c.freeINA[k-1] = nil
		c.freeINA = c.freeINA[:k-1]
		return p
	}
	p := &inaParams{c: c}
	p.distributeFn, p.finishFn, p.releaseFn = p.distribute, p.finish, p.release
	return p
}

// finishINA releases control-plane state.
func (c *Comm) finishINA(p *inaParams) {
	p.sw.ReleaseJob(p.job)
	if p.mode == switchsim.ModeAsync {
		c.activeAsync[p.swNode]--
	}
	delete(c.inflightINA[p.swNode], p)
}

// distribute starts the distribution phase once the switch has aggregated.
func (p *inaParams) distribute() {
	p.c.net.StartGroup(p.paths, p.flowTotal, netsim.Inline, p.finishFn)
}

// finish enforces the slot-window goodput cap on the whole operation: it
// releases the op no earlier than the window allows.
func (p *inaParams) finish() {
	eng := p.c.net.Engine()
	minElapsed := 2 * float64(p.total) / p.inaGoodput() * p.penalty
	wait := minElapsed - (eng.Now() - p.start)
	if wait < 0 {
		wait = 0
	}
	eng.PostAfter(wait, p.releaseFn)
}

// release frees the op's switch state, recycles it and runs its done.
func (p *inaParams) release() {
	c, done := p.c, p.done
	c.finishINA(p)
	p.done = nil
	c.freeINA = append(c.freeINA, p)
	done()
}

// NotifySwitchFault demotes every INA operation currently in flight at the
// switch to the host-aggregation fallback path: the workers' outstanding
// chunks time out against the wiped data plane and are re-aggregated
// end-host side at rebootFallbackFactor times the reserved-window cost.
// Fault injection calls this when a switch reboots; each op is penalized at
// most once.
func (c *Comm) NotifySwitchFault(sw topology.NodeID) {
	demoted := 0
	for p := range c.inflightINA[sw] {
		if p.faulted {
			continue
		}
		p.faulted = true
		p.penalty *= rebootFallbackFactor
		c.counters.FaultFallbacks++
		c.telFaultFallbacks.Inc()
		demoted++
	}
	// One instant for the whole batch: the inflight set is a map, so per-op
	// instants would export in nondeterministic order.
	if demoted > 0 && c.tel != nil {
		c.tel.Trace.Instant(telemetry.ControlTID, "collective", "ina-fault-fallback",
			telemetry.Args{telemetry.Int("ops", demoted), telemetry.Str("switch", c.switchName(sw))})
	}
}

// exerciseDataPlane pushes one representative aggregation round through the
// switch so the data plane's counters and semantics stay on the hot path.
func (c *Comm) exerciseDataPlane(p *inaParams, fanIn int) {
	vals := c.dpVals[:]
	for w := 0; w < fanIn; w++ {
		for i := range vals {
			vals[i] = int32(w + i)
		}
		v, _ := p.sw.Ingest(switchsim.Packet{Job: p.job, Seq: 0, Worker: w, Values: vals})
		if v == switchsim.VerdictDrop && p.mode == switchsim.ModeSync {
			panic("collective: sync data plane dropped with reserved window")
		}
	}
}

// inaGoodput returns the window-limited aggregation goodput in bytes/second.
func (p *inaParams) inaGoodput() float64 {
	return switchsim.SyncGoodput(p.window, p.sw.EntryBytes(), p.rtt, math.Inf(1))
}

// INAAllReduce performs steps synchronization steps of msgBytes each via
// in-network aggregation at switch sw: a collection phase (all members
// stream their totals to the switch), the switch aggregation latency, and a
// distribution phase back to the members. The aggregator-slot window caps
// goodput; a synchronous op that gets no slots falls back to ring (recorded
// in the counters). mode selects SwitchML (sync) or ATP (async) semantics.
func (c *Comm) INAAllReduce(grp *Group, sw topology.NodeID, msgBytes int64, steps int, mode switchsim.Mode, done func()) {
	p := grp.Size()
	if p <= 1 || msgBytes == 0 || steps == 0 {
		c.net.Engine().PostAfter(0, done)
		return
	}
	total := int64(steps) * msgBytes

	// Resolve member<->switch paths first: they define the RTT.
	l := c.inaPaths(grp, sw, total)
	rtt := 2*l.maxLat + switchsim.AggLatency

	params, ok := c.prepareINA(sw, p, mode, rtt)
	if !ok {
		c.counters.SlotFallbacks++
		c.telSlotFallbacks.Inc()
		if c.tel != nil {
			c.tel.Trace.Instant(telemetry.ControlTID, "collective", "slot-fallback",
				telemetry.Args{telemetry.Int("group", p), telemetry.Str("mode", mode.String()), telemetry.Str("switch", c.switchName(sw))})
		}
		c.RingAllReduce(grp, msgBytes, steps, done)
		return
	}
	if mode == switchsim.ModeSync {
		c.counters.INASyncOps++
		c.telOps[SchemeINASync].Inc()
	} else {
		c.counters.INAAsyncOps++
		c.telOps[SchemeINAAsync].Inc()
	}
	c.counters.BytesMoved += 2 * total * int64(p)
	c.telBytes.Add(float64(2 * total * int64(p)))
	c.exerciseDataPlane(params, p)

	params.paths = append(params.paths[:0], l.paths...)
	params.total = total
	// The async fallback fraction re-sends data to an end-host aggregator:
	// inflate the transferred volume by the penalty factor.
	params.flowTotal = int64(float64(total) * params.penalty)
	params.start = c.net.Engine().Now()
	params.done = done
	// Collection, then the switch aggregation latency, then distribution
	// (inaParams.distribute) and the goodput cap (inaParams.finish).
	c.net.StartGroup(params.paths, params.flowTotal, float64(steps)*switchsim.AggLatency, params.distributeFn)
}

// HeteroAllReduce performs HeroServe's heterogeneous INA: NVLink
// pre-reduction to each server's leader GPU, synchronous Ethernet INA across
// the leaders at switch sw, and NVLink broadcast back to the members.
// Single-server groups never touch Ethernet.
func (c *Comm) HeteroAllReduce(grp *Group, sw topology.NodeID, msgBytes int64, steps int, done func()) {
	c.heteroAllReduce(grp, &grp.server, sw, msgBytes, steps, done)
}

// HeteroNUMAAllReduce is the §VII future-work variant for PCIe-only
// servers: pre-reduction happens per (server, NUMA domain) so intra-socket
// PCIe carries it at full speed, and one leader per domain joins the
// Ethernet aggregation. On NVLink servers it behaves exactly like
// HeteroAllReduce.
func (c *Comm) HeteroNUMAAllReduce(grp *Group, sw topology.NodeID, msgBytes int64, steps int, done func()) {
	c.heteroAllReduce(grp, grp.numa, sw, msgBytes, steps, done)
}

// heteroOp carries one heterogeneous all-reduce through its three phases.
// A finished op goes back to its Comm's free list with its phase
// callbacks, which are built once per op value.
type heteroOp struct {
	c        *Comm
	grp      *Group
	part     *partition // grp's server or NUMA partition
	sw       topology.NodeID
	msgBytes int64
	steps    int
	total    int64 // bytes per intra-part flow
	done     func()

	interFn, broadcastFn func()
}

func (c *Comm) heteroAllReduce(grp *Group, part *partition, sw topology.NodeID, msgBytes int64, steps int, done func()) {
	if grp.Size() <= 1 || msgBytes == 0 || steps == 0 {
		c.net.Engine().PostAfter(0, done)
		return
	}
	c.counters.HeteroOps++
	c.telOps[SchemeHetero].Inc()
	total := int64(steps) * msgBytes
	c.counters.BytesMoved += 2 * total * int64(part.intraFlows)
	c.telBytes.Add(float64(2 * total * int64(part.intraFlows)))

	op := c.newHetero()
	op.grp, op.part, op.sw, op.msgBytes, op.steps, op.total, op.done = grp, part, sw, msgBytes, steps, total, done
	if part.intraFlows == 0 {
		op.inter()
		return
	}
	c.startIntra(grp, part, phaseReduce, total, op.interFn)
}

// startIntra starts one intra-part phase of a heterogeneous op on part,
// one of grp's partitions, as one flow group: each non-leader to its part's
// leader (phaseReduce) or each leader to its non-leaders (phaseBroadcast),
// total bytes each. done runs when every flow has delivered.
func (c *Comm) startIntra(grp *Group, part *partition, ph phase, total int64, done func()) {
	l, ok := c.phasePaths(grp, phaseKey{phase: ph, part: part}, total, part.intraFlows)
	if !ok {
		for _, members := range part.parts {
			for _, m := range members[1:] {
				src, dst := intraEnds(ph, members[0], m)
				l.add(c, src, dst, total)
			}
		}
	}
	c.net.StartGroup(l.paths, total, netsim.Inline, done)
}

// intraEnds returns the ends of the phase's flow between a part's leader
// and its member m.
func intraEnds(ph phase, leader, m topology.NodeID) (src, dst topology.NodeID) {
	if ph == phaseReduce {
		return m, leader
	}
	return leader, m
}

// newHetero takes an op off the free list, or builds one with its phase
// callbacks.
func (c *Comm) newHetero() *heteroOp {
	if k := len(c.freeHetero); k > 0 {
		op := c.freeHetero[k-1]
		c.freeHetero[k-1] = nil
		c.freeHetero = c.freeHetero[:k-1]
		return op
	}
	op := &heteroOp{c: c}
	op.interFn, op.broadcastFn = op.inter, op.broadcast
	return op
}

// inter runs the Ethernet INA across the part leaders, once the
// pre-reduction is in.
func (op *heteroOp) inter() {
	if len(op.part.parts) <= 1 {
		op.broadcast()
		return
	}
	op.c.INAAllReduce(op.part.leaders, op.sw, op.msgBytes, op.steps, switchsim.ModeSync, op.broadcastFn)
}

// broadcast starts the leaders' broadcast back to their parts, which runs
// the op's done when it delivers, and recycles the op.
func (op *heteroOp) broadcast() {
	c, grp, part, total, done := op.c, op.grp, op.part, op.total, op.done
	op.grp, op.part, op.done = nil, nil, nil
	c.freeHetero = append(c.freeHetero, op)
	if part.intraFlows == 0 {
		c.net.Engine().PostAfter(0, done)
		return
	}
	c.startIntra(grp, part, phaseBroadcast, total, done)
}

// AllReduce dispatches on scheme, bracketing the operation in an async trace
// span (the scheme that *executes* may differ from the span's scheme arg only
// via the recorded fallback instants). sw is ignored by SchemeRing. reqs
// lists the request IDs whose tokens ride this collective, recorded on the
// span as the "reqs" arg so the critical-path analyzer can charge the
// communication time to the requests it served; an empty reqs leaves the
// arg out. The span carries reqs itself, not a copy: the event lives only as
// long as the AsyncBegin call, and a tap that keeps the list copies it.
func (c *Comm) AllReduce(scheme Scheme, grp *Group, sw topology.NodeID, msgBytes int64, steps int, reqs []int, done func()) {
	if c.tel != nil {
		args := append(c.spanArgs[:0], telemetry.Int64("bytes", msgBytes), telemetry.Int("group", grp.Size()))
		if len(reqs) > 0 {
			args = append(args, telemetry.Ints("reqs", reqs))
		}
		args = append(args, telemetry.Str("scheme", scheme.String()), telemetry.Int("steps", steps))
		if scheme.UsesINA() {
			args = append(args, telemetry.Str("switch", c.switchName(sw)))
		}
		c.spanArgs = args
		done = c.beginSpan("collective", "allreduce", args, done)
	}
	switch scheme {
	case SchemeRing:
		c.RingAllReduce(grp, msgBytes, steps, done)
	case SchemeINASync:
		c.INAAllReduce(grp, sw, msgBytes, steps, switchsim.ModeSync, done)
	case SchemeINAAsync:
		c.INAAllReduce(grp, sw, msgBytes, steps, switchsim.ModeAsync, done)
	case SchemeHetero:
		c.HeteroAllReduce(grp, sw, msgBytes, steps, done)
	default:
		panic(fmt.Sprintf("collective: unknown scheme %d", scheme))
	}
}
