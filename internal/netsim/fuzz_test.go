package netsim

import (
	"math"
	"slices"
	"testing"

	"heroserve/internal/sim"
	"heroserve/internal/telemetry"
	"heroserve/internal/topology"
)

// FuzzReallocate decodes arbitrary bytes into a small topology plus a script
// of one-flow and multi-flow group starts, link rescalings, rate reads, and
// engine steps, and checks after every operation that the allocator's
// output is a max-min fair allocation:
//
//  1. no link carries more than its effective capacity (within float
//     tolerance);
//  2. every active flow is bottlenecked — some link on its path is saturated
//     and the flow's rate is maximal among that link's flows (a flow that
//     could be raised without lowering a faster flow is not max-min);
//  3. the reference and fast allocators agree bit-for-bit;
//  4. the completion timer is armed exactly when some active flow has a
//     positive rate, then for the minimum (finish time, ID), and the fast
//     and reference networks' timers agree bit-for-bit;
//  5. the busy-link list holds exactly the edges that carry an active flow,
//     each once, with busyPos pointing at its slot, and the ID-ordered
//     active index holds exactly the flows the links carry;
//  6. the fast network's path classes partition its active flows by edge
//     sequence, each in ascending (remaining, ID) order with every flow's
//     position index right and its timer candidate exact, and each link
//     lists exactly the live classes crossing it;
//  7. replaying the script on a fresh network reproduces every rate and
//     every link byte counter bit-for-bit (determinism);
//  8. both networks complete the same flow groups and count the same bytes
//     on every link;
//  9. a held twin of each network, on the same engine kind, matches it bit
//     for bit after every operation: clock, events run, groups completed,
//     every rate and remaining byte count, the timer and the link counters.
//     Batches of changes — starts, group starts, rescales and flow and link
//     rate reads, opened by a completion or not — are made on the twins
//     between Hold and Release, and one change at a time on the eager
//     networks.
//
// Paths are drawn mostly from a small pool, so many flows share an edge
// sequence and path classes often hold more than one flow.
func FuzzReallocate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 20, 0, 0, 1, 0, 2, 1, 0, 0, 1, 0, 3})
	f.Add([]byte{7, 40, 2, 0, 0, 2, 2, 3, 1, 0, 2, 5, 1, 0, 1, 0, 3, 3, 2, 1, 3})
	f.Add([]byte{1, 10, 0, 0, 255, 255, 0, 0, 128, 2, 0, 0, 3})
	f.Add([]byte{4, 30, 1, 2, 3, 20, 4, 2, 1, 0, 2, 1, 3, 9, 0, 0, 3, 3, 4, 0, 0, 1, 7, 7, 3, 3, 3})
	for _, seed := range append(sharedPathSeeds(), distinctSizeSeed(), heldBatchSeed()) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		first := runScenario(t, data)
		second := runScenario(t, data) // determinism: replay must be bit-identical
		if len(first) != len(second) {
			t.Fatalf("replay diverged: %d state words vs %d", len(first), len(second))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("replay diverged at state word %d: %x vs %x", i, first[i], second[i])
			}
		}
	})
}

// fuzzPoolSize is how many fresh paths a fuzz script keeps for reuse.
const fuzzPoolSize = 4

// sharedPathSeeds returns scripts that pile 32 or more flows onto at most
// four pooled paths. Flow groups fill large path classes, so reallocations
// end in a round whose bottleneck carries every unfrozen flow. Completions
// then empty a class while others still carry flows.
func sharedPathSeeds() [][]byte {
	const opStart, opLink, opScale, opStep, opGroup = 0, 1, 2, 3, 4
	pooled := func(i int) byte { return byte(4*i + 1) } // selects pool[i]
	// Four edges of capacity 1, 2, 1.5 and 0.5 GB/s, then the op count.
	header := func(nOps int) []byte { return []byte{3, 3, 7, 5, 1, byte(nOps - 2)} }
	group := func(size byte, sel ...byte) []byte {
		return append(append([]byte{opGroup, byte(len(sel) - 1)}, sel...), size, 0)
	}
	steps := func(k int) []byte {
		b := make([]byte, k)
		for i := range b {
			b[i] = opStep
		}
		return b
	}

	// Fill the pool (0,1,2 / 2,3 / 1 / 3) with one group, put eight more
	// groups of four on it (36 flows, 4 paths), start two flows on a fifth,
	// unpooled path decoded twice (two slices, one class), read two links'
	// rates, start one on a sixth, black out and restore edge 2, and step
	// through completions.
	a := header(41)
	a = append(a, opGroup, 3, 0, 2, 0, 1, 2, 0, 1, 2, 3, 0, 0, 1, 0, 0, 3, 9, 0)
	for i := 0; i < 8; i++ {
		a = append(a, group(byte(2*i+1), pooled(0), pooled(i%2), pooled(1), pooled(i%4))...)
	}
	a = append(a, opStart, 0, 1, 0, 3, 5, 0, opStart, 0, 1, 0, 3, 6, 0)
	a = append(a, opLink, 0, opLink, 1)
	a = append(a, opStart, 0, 1, 1, 3, 2, 0)
	a = append(a, opScale, 2, 0, opScale, 2, 3)
	a = append(a, steps(25)...)

	// Two paths that share edge 1, 38 equal flows in ten groups, then
	// steps: each class drains at one instant, one flow per step.
	b := header(41)
	b = append(b, opGroup, 1, 0, 1, 0, 1, 0, 0, 1, 4, 0)
	for i := 0; i < 9; i++ {
		b = append(b, group(4, pooled(0), pooled(1), pooled(1), pooled(0))...)
	}
	b = append(b, steps(31)...)
	return [][]byte{a, b}
}

// distinctSizeSeed returns a script that piles 37 flows of distinct sizes
// onto two paths that share an edge, with steps and a link read in between:
// the clock moves while the classes hold many flows, so charges run, and
// later flows join behind, between and ahead of flows that have drained.
func distinctSizeSeed() []byte {
	const opStart, opLink, opStep = 0, 1, 3
	s := []byte{3, 3, 7, 5, 1, 41 - 2}         // four edges, as in sharedPathSeeds
	s = append(s, opStart, 0, 1, 0, 1, 200, 0) // fresh path 0,1 joins the pool
	s = append(s, opStart, 0, 0, 1, 100, 1)    // fresh path 1 joins the pool
	for i := 2; i < 41; i++ {
		switch {
		case i%12 == 0:
			s = append(s, opStep)
		case i == 30:
			s = append(s, opLink, byte(i))
		default: // pool[i%2], (1+b)<<16 + i bytes
			s = append(s, opStart, byte(4*(i%2)+1), byte(37*i), byte(i))
		}
	}
	return s
}

// heldBatchSeed returns a script of held batches between single changes:
// one that starts, reads a link, rescales and reads a flow, one opened by a
// completion that starts a group and reads a flow and a link, and one that
// blacks out a link and starts a flow across it, with steps through the
// completions between.
func heldBatchSeed() []byte {
	const opStart, opLink, opScale, opRead, opGroup, opBatch = 0, 1, 2, 3, 4, 5
	const opStep = 3
	ops := [][]byte{
		{opStart, 0, 2, 0, 1, 2, 10, 0}, // fresh path 0,1,2 joins the pool
		{opStart, 0, 1, 2, 3, 20, 0},    // fresh path 2,3 joins the pool
		{opGroup, 1, 1, 5, 4, 0},        // pool[0] and pool[1]
		{opBatch, 0, 3, opStart, 1, 30, 0, opLink, 0, opScale, 2, 2, opRead, 1},
		{opStep},
		{opBatch, 1, 3, opGroup, 2, 1, 5, 9, 3, 0, opStart, 5, 7, 0, opRead, 2, opLink, 3},
		{opStep}, {opStep}, {opStep},
		{opBatch, 1, 1, opScale, 0, 0, opStart, 1, 4, 0},
		{opStep}, {opStep}, {opStep}, {opStep}, {opStep}, {opStep},
	}
	s := []byte{3, 3, 7, 5, 1, byte(len(ops) - 2)} // four edges, as in sharedPathSeeds
	for _, op := range ops {
		s = append(s, op...)
	}
	return s
}

type fuzzDecoder struct {
	data []byte
	pos  int
}

func (d *fuzzDecoder) byte() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// runScenario decodes and executes one fuzz scenario on a fast and a
// reference network in lockstep, returning the final state as float bits for
// the caller's determinism check.
func runScenario(t *testing.T, data []byte) []uint64 {
	d := &fuzzDecoder{data: data}

	nEdges := 1 + int(d.byte())%8
	build := func() *topology.Graph {
		g := topology.NewGraph()
		prev := g.AddNode(topology.Node{Kind: topology.KindHost})
		dd := &fuzzDecoder{data: data}
		dd.byte() // skip the edge-count byte
		for i := 0; i < nEdges; i++ {
			next := g.AddNode(topology.Node{Kind: topology.KindHost})
			capScale := 0.25 * float64(1+int(dd.byte())%16)
			g.AddEdge(prev, next, topology.LinkEthernet, capScale*1e9, 0)
			prev = next
		}
		return g
	}
	gf, gr := build(), build()
	for i := 0; i < nEdges; i++ { // consume the capacity bytes on d too
		d.byte()
	}

	// The eager pair, and a held twin of each on the same engine kind.
	fast := newFuzzSide(New(gf, sim.NewEngine()), false)
	ref := newFuzzSide(NewReference(gr, sim.NewReferenceEngine()), false)
	fastH := newFuzzSide(New(build(), sim.NewEngine()), true)
	refH := newFuzzSide(NewReference(build(), sim.NewReferenceEngine()), true)
	sides := []*fuzzSide{fast, ref, fastH, refH}

	fracs := []float64{0, 0.25, 0.5, 1}
	// freshPath decodes a path over 1-3 distinct edges.
	freshPath := func() topology.Path {
		k := 1 + int(d.byte())%3
		var edges []topology.EdgeID
		for j := 0; j < k; j++ {
			eid := topology.EdgeID(int(d.byte()) % nEdges)
			dup := false
			for _, e := range edges {
				if e == eid {
					dup = true
				}
			}
			if !dup {
				edges = append(edges, eid)
			}
		}
		return topology.Path{Edges: edges}
	}
	// path decodes a selector byte: unless it is 0 mod 4 or the pool is
	// empty, it names a path from the pool; otherwise a fresh path follows,
	// and joins the pool while the pool has room.
	var pool []topology.Path
	path := func() topology.Path {
		if s := int(d.byte()); s%4 != 0 && len(pool) > 0 {
			return pool[(s/4)%len(pool)]
		}
		p := freshPath()
		if len(pool) < fuzzPoolSize {
			pool = append(pool, p)
		}
		return p
	}
	step := func(op int) {
		sf := fast.net.eng.Step()
		for _, s := range sides[1:] {
			if got := s.net.eng.Step(); got != sf {
				t.Fatalf("op %d: Step %v on one network, %v on another", op, sf, got)
			}
		}
	}
	// change decodes one change and makes it on every network: kind 0
	// starts a flow, 1 reads a link's rate, 2 rescales a link, 3 reads a
	// flow's rate and 4 starts a group. A read settles a held network.
	change := func(kind byte) {
		switch kind {
		case 0: // start a one-flow group on 1-3 distinct edges
			p := path()
			size := int64(1+int(d.byte()))<<16 + int64(d.byte())
			for _, s := range sides {
				startFlow(s.net, p, size, nil)
			}
		case 1: // read a link's rate
			eid := topology.EdgeID(int(d.byte()) % nEdges)
			want := fast.net.EdgeRate(eid)
			for _, s := range sides[1:] {
				if got := s.net.EdgeRate(eid); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("link %d read at rate %g on one network, %g on another", eid, want, got)
				}
			}
		case 2: // rescale a link (degrade / blackout / recover)
			eid := topology.EdgeID(int(d.byte()) % nEdges)
			frac := fracs[int(d.byte())%4]
			for _, s := range sides {
				s.net.SetLinkScale(eid, frac)
			}
		case 3: // read an active flow's rate
			if k := len(fast.net.order); k > 0 {
				i := int(d.byte()) % k
				want := fast.net.rateOf(fast.net.order[i])
				for _, s := range sides[1:] {
					if got := s.net.rateOf(s.net.order[i]); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("active flow %d read at rate %g on one network, %g on another", i, want, got)
					}
				}
			}
		case 4: // start a group of 1-4 flows; done runs inline, so the
			// timer stays the only queued event
			paths := make([]topology.Path, 1+int(d.byte())%4)
			for i := range paths {
				paths[i] = path()
			}
			size := int64(1+int(d.byte()))<<16 + int64(d.byte())
			for _, s := range sides {
				s.net.StartGroup(paths, size, Inline, s.groupDone)
			}
		}
	}

	nOps := 2 + int(d.byte())%40
	for op := 0; op < nOps; op++ {
		switch kind := d.byte() % 6; kind {
		case 3: // advance the simulation one event (flow completions)
			step(op)
		case 5: // a batch of changes, made while the held twins are held;
			// a completion may open it
			for _, s := range sides {
				if s.held {
					s.net.Hold()
				}
			}
			if d.byte()%2 == 1 {
				step(op)
			}
			for k := 1 + int(d.byte())%4; k > 0; k-- {
				change(d.byte() % 5)
			}
			for _, s := range sides {
				if s.held {
					s.net.Release()
				}
			}
		default:
			change(kind)
		}
		if fast.groups != ref.groups {
			t.Fatalf("op %d: groups completed fast=%d ref=%d", op, fast.groups, ref.groups)
		}
		checkMaxMin(t, fast.net, op)
		checkAgreement(t, fast.net, ref.net, op)
		checkTimers(t, fast.net, ref.net, op)
		checkBusy(t, fast.net, op)
		checkBusy(t, ref.net, op)
		checkOrder(t, fast.net, op)
		checkOrder(t, ref.net, op)
		checkClasses(t, fast.net, op)
		for _, tw := range [][2]*fuzzSide{{fast, fastH}, {ref, refH}} {
			checkHeld(t, tw[0], tw[1], op)
		}
		checkClasses(t, fastH.net, op)
	}

	bits := make([]uint64, 0, 2*fast.net.ActiveFlows()+nEdges+1)
	for _, fl := range fast.net.order {
		bits = append(bits, math.Float64bits(fast.net.rateOf(fl)), math.Float64bits(fast.net.remainingOf(fl)))
	}
	bits = append(bits, uint64(fast.groups))
	for e := 0; e < nEdges; e++ {
		x, y := fast.net.tel.linkBytes[e].Value(), ref.net.tel.linkBytes[e].Value()
		if math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("link %d carried fast=%g ref=%g bytes", e, x, y)
		}
		bits = append(bits, math.Float64bits(x))
	}
	return bits
}

// fuzzSide is one network a fuzz scenario drives, with the groups it
// completed.
type fuzzSide struct {
	net       *Network
	held      bool // a held twin: batches are made between Hold and Release
	groups    int
	groupDone func()
}

func newFuzzSide(n *Network, held bool) *fuzzSide {
	s := &fuzzSide{net: n, held: held}
	s.net.SetTelemetry(telemetry.New())
	s.groupDone = func() { s.groups++ }
	return s
}

// checkHeld asserts a held twin is its eager twin bit for bit: the clock,
// the events run, the groups completed, every flow's rate and remaining
// bytes, the completion timer, and every link's byte counter.
func checkHeld(t *testing.T, eager, held *fuzzSide, op int) {
	t.Helper()
	a, b := eager.net, held.net
	if x, y := a.eng.Now(), b.eng.Now(); math.Float64bits(x) != math.Float64bits(y) {
		t.Fatalf("op %d: Now eager=%g held=%g", op, x, y)
	}
	if x, y := a.eng.Processed(), b.eng.Processed(); x != y {
		t.Fatalf("op %d: Processed eager=%d held=%d", op, x, y)
	}
	if eager.groups != held.groups {
		t.Fatalf("op %d: groups completed eager=%d held=%d", op, eager.groups, held.groups)
	}
	checkAgreement(t, a, b, op)
	checkTimer(t, b, op)
	if (a.next == nil) != (b.next == nil) {
		t.Fatalf("op %d: timer armed eager=%v held=%v", op, a.next != nil, b.next != nil)
	}
	if a.next != nil {
		if x, y := a.timer.At(), b.timer.At(); math.Float64bits(x) != math.Float64bits(y) || a.next.ID != b.next.ID {
			t.Fatalf("op %d: timer eager=(%g, flow %d) held=(%g, flow %d)", op, x, a.next.ID, y, b.next.ID)
		}
	}
	for e := range a.tel.linkBytes {
		if x, y := a.tel.linkBytes[e].Value(), b.tel.linkBytes[e].Value(); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("op %d: link %d carried eager=%g held=%g bytes", op, e, x, y)
		}
	}
}

// checkMaxMin asserts the allocation on n is max-min fair.
func checkMaxMin(t *testing.T, n *Network, op int) {
	t.Helper()
	const tol = 1e-6
	for e := 0; e < n.g.NumEdges(); e++ {
		eid := topology.EdgeID(e)
		c := n.effectiveCapacity(eid)
		if r := n.EdgeRate(eid); r > c*(1+tol)+1e-9 {
			t.Fatalf("op %d: link %d over capacity: rate %g > cap %g", op, e, r, c)
		}
	}
	for _, fl := range n.order {
		bottlenecked := false
		for _, eid := range fl.Path.Edges {
			c := n.effectiveCapacity(eid)
			if n.EdgeRate(eid) < c*(1-tol)-1e-9 {
				continue // not saturated
			}
			maxRate := 0.0
			for _, g := range n.linkFlows[eid] {
				maxRate = max(maxRate, n.rateOf(g))
			}
			if n.rateOf(fl) >= maxRate*(1-tol)-1e-12 {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			t.Fatalf("op %d: flow %d (rate %g) is not bottlenecked on any saturated path link — allocation is not max-min",
				op, fl.ID, n.rateOf(fl))
		}
	}
}

// checkBusy asserts the busy-link list is the set {eid : len(linkFlows[eid])
// > 0}, without duplicates, and that busyPos indexes every member.
func checkBusy(t *testing.T, n *Network, op int) {
	t.Helper()
	listed := make([]bool, n.g.NumEdges())
	for i, eid := range n.busy {
		if listed[eid] {
			t.Fatalf("op %d: edge %d listed twice as busy", op, eid)
		}
		listed[eid] = true
		if n.busyPos[eid] != i {
			t.Fatalf("op %d: busyPos[%d] = %d, listed at %d", op, eid, n.busyPos[eid], i)
		}
	}
	for eid, fl := range n.linkFlows {
		if listed[eid] != (len(fl) > 0) {
			t.Fatalf("op %d: edge %d busy-listed=%v with %d active flows", op, eid, listed[eid], len(fl))
		}
	}
}

// checkOrder asserts the active-flow index: order ascends by ID, holds
// only flows marked active, and holds exactly the flows the links carry. On
// the reference path no flow sits in a class.
func checkOrder(t *testing.T, n *Network, op int) {
	t.Helper()
	hops := 0
	for i, f := range n.order {
		if i > 0 && n.order[i-1].ID >= f.ID {
			t.Fatalf("op %d: order holds flow %d after flow %d", op, f.ID, n.order[i-1].ID)
		}
		if !f.active {
			t.Fatalf("op %d: order holds flow %d, which is not marked active", op, f.ID)
		}
		if n.ref && f.class != nil {
			t.Fatalf("op %d: reference flow %d sits in a path class", op, f.ID)
		}
		hops += len(f.Path.Edges)
	}
	for _, lf := range n.linkFlows {
		for _, f := range lf {
			if !f.active {
				t.Fatalf("op %d: a link carries flow %d, which is not marked active", op, f.ID)
			}
			hops--
		}
	}
	if hops != 0 {
		t.Fatalf("op %d: the links carry %d flow-hops more than order lists", op, -hops)
	}
}

// checkClasses asserts the fast path's path classes partition the active
// flows by edge sequence: each active flow sits in exactly one class, at the
// slot classPos names, whose edges equal its path; each class holds its
// flows in ascending (remaining, ID) order, and a running class's timer
// candidate is its minimum (finish time, ID); class sizes sum to the
// active flow count; the live list holds exactly the classes with
// flows, each at the slot livePos names; each link lists exactly the live
// classes that cross it, each once; and every class ever built is either
// live or on the free list.
func checkClasses(t *testing.T, n *Network, op int) {
	t.Helper()
	live := make(map[*pathClass]bool)
	for _, f := range n.order {
		c := f.class
		if c == nil || f.classPos < c.head || f.classPos >= len(c.flows) || c.flows[f.classPos] != f || len(c.rem) != len(c.flows) {
			t.Fatalf("op %d: flow %d is not in its class at slot %d", op, f.ID, f.classPos)
		}
		if !slices.Equal(c.edges, f.Path.Edges) {
			t.Fatalf("op %d: flow %d on %v sits in the class of %v", op, f.ID, f.Path.Edges, c.edges)
		}
		live[c] = true
	}
	size := 0
	for c := range live {
		s := c.members()
		size += len(s)
		for i := 1; i < len(s); i++ {
			if a, b := s[i-1], s[i]; a.curRemaining() > b.curRemaining() || a.curRemaining() == b.curRemaining() && a.ID > b.ID {
				t.Fatalf("op %d: class holds flow %d (%g bytes left) before flow %d (%g)",
					op, a.ID, a.curRemaining(), b.ID, b.curRemaining())
			}
		}
	}
	if size != n.ActiveFlows() {
		t.Fatalf("op %d: classes hold %d flows, %d are active", op, size, n.ActiveFlows())
	}
	now := n.eng.Now()
	for c := range live {
		if c.rate <= 0 {
			continue
		}
		// The class's timer candidate is its minimum (finish time, ID).
		var want *flow
		var wantAt sim.Time
		for _, f := range c.members() {
			if at := now + f.curRemaining()/c.rate; want == nil || at < wantAt || at == wantAt && f.ID < want.ID {
				want, wantAt = f, at
			}
		}
		if got, at := c.first(now); got != want || math.Float64bits(at) != math.Float64bits(wantAt) {
			t.Fatalf("op %d: class candidate is flow %d at %g, want flow %d at %g", op, got.ID, at, want.ID, wantAt)
		}
	}
	if len(n.live) != len(live) {
		t.Fatalf("op %d: %d classes listed live, %d hold flows", op, len(n.live), len(live))
	}
	for i, c := range n.live {
		if !live[c] || c.livePos != i {
			t.Fatalf("op %d: live slot %d holds a class with %d flows at livePos %d", op, i, c.size(), c.livePos)
		}
	}
	for eid, lc := range n.linkClasses {
		listed := make(map[*pathClass]bool)
		for _, c := range lc {
			switch {
			case listed[c]:
				t.Fatalf("op %d: edge %d lists a class twice", op, eid)
			case !live[c]:
				t.Fatalf("op %d: edge %d lists a class with no active flow", op, eid)
			case !slices.Contains(c.edges, topology.EdgeID(eid)):
				t.Fatalf("op %d: edge %d lists the class of %v", op, eid, c.edges)
			}
			listed[c] = true
		}
		for c := range live {
			if slices.Contains(c.edges, topology.EdgeID(eid)) && !listed[c] {
				t.Fatalf("op %d: edge %d does not list the class of %v", op, eid, c.edges)
			}
		}
	}
	for _, c := range n.freeClasses {
		if live[c] || len(c.flows) != 0 || c.head != 0 {
			t.Fatalf("op %d: a free class still holds %d flows from slot %d", op, len(c.flows), c.head)
		}
	}
	if got := len(live) + len(n.freeClasses); got != n.classes {
		t.Fatalf("op %d: %d live + %d free classes, %d built", op, len(live), len(n.freeClasses), n.classes)
	}
}

// checkDrained asserts that a network whose last flow has left holds no
// path class: no link lists one, and every class built is on the free list.
func checkDrained(t *testing.T, n *Network) {
	t.Helper()
	for eid, lc := range n.linkClasses {
		if len(lc) != 0 {
			t.Errorf("edge %d lists %d classes after the drain", eid, len(lc))
		}
	}
	if len(n.freeClasses) != n.classes {
		t.Errorf("%d of %d classes on the free list after the drain", len(n.freeClasses), n.classes)
	}
}

// checkTimer asserts n's completion-timer invariant and reports whether the
// timer is armed. Fuzz scenarios queue no engine event besides the timer, so
// the engine's pending count says whether it is armed.
func checkTimer(t *testing.T, n *Network, op int) bool {
	t.Helper()
	// The earliest (finish time, ID), found with an explicit tuple compare
	// over every active flow.
	var want *flow
	var wantAt sim.Time
	now := n.eng.Now()
	for _, f := range n.order {
		rate := n.rateOf(f)
		if rate <= 0 {
			continue
		}
		at := now + n.remainingOf(f)/rate
		if want == nil || at < wantAt || (at == wantAt && f.ID < want.ID) {
			want, wantAt = f, at
		}
	}
	armed := n.eng.Pending() == 1
	switch {
	case n.eng.Pending() > 1:
		t.Fatalf("op %d: %d events queued, want at most the one timer", op, n.eng.Pending())
	case armed != (want != nil):
		t.Fatalf("op %d: timer armed=%v, but a flow with positive rate exists=%v", op, armed, want != nil)
	case armed != (n.timer != nil && !n.timer.Cancelled()):
		t.Fatalf("op %d: engine says armed=%v, timer event disagrees", op, armed)
	case !armed && n.next != nil:
		t.Fatalf("op %d: idle timer still names flow %d", op, n.next.ID)
	case armed && n.next != want:
		t.Fatalf("op %d: timer armed for the wrong flow, want flow %d", op, want.ID)
	case armed && math.Float64bits(n.timer.At()) != math.Float64bits(wantAt):
		t.Fatalf("op %d: timer at %g, want %g", op, n.timer.At(), wantAt)
	}
	return armed
}

// checkTimers asserts the timer invariant on both networks, and that their
// timers agree: both armed or both idle, at the same instant, for the same
// flow.
func checkTimers(t *testing.T, fast, ref *Network, op int) {
	t.Helper()
	a, b := checkTimer(t, fast, op), checkTimer(t, ref, op)
	if a != b {
		t.Fatalf("op %d: timer armed fast=%v ref=%v", op, a, b)
	}
	if !a {
		return
	}
	if x, y := fast.timer.At(), ref.timer.At(); math.Float64bits(x) != math.Float64bits(y) {
		t.Fatalf("op %d: timer at fast=%g ref=%g", op, x, y)
	}
	if x, y := fast.next.ID, ref.next.ID; x != y {
		t.Fatalf("op %d: timer for flow fast=%d ref=%d", op, x, y)
	}
}

// checkAgreement asserts the fast and reference allocators are bit-identical.
func checkAgreement(t *testing.T, fast, ref *Network, op int) {
	t.Helper()
	if a, b := fast.ActiveFlows(), ref.ActiveFlows(); a != b {
		t.Fatalf("op %d: ActiveFlows fast=%d ref=%d", op, a, b)
	}
	// Every active flow, group flows included, in ID order.
	refFlows := ref.order
	for i, a := range fast.order {
		b := refFlows[i]
		ra, rb := fast.rateOf(a), ref.rateOf(b)
		la, lb := fast.remainingOf(a), ref.remainingOf(b)
		if a.ID != b.ID || math.Float64bits(ra) != math.Float64bits(rb) || math.Float64bits(la) != math.Float64bits(lb) {
			t.Fatalf("op %d: active flow %d: fast (%d, %g, %g) ref (%d, %g, %g)",
				op, i, a.ID, ra, la, b.ID, rb, lb)
		}
	}
}
