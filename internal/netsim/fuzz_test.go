package netsim

import (
	"math"
	"testing"

	"heroserve/internal/sim"
	"heroserve/internal/topology"
)

// FuzzReallocate decodes arbitrary bytes into a small topology plus a script
// of flow starts/cancels, link rescalings, and engine steps, and checks after
// every operation that the allocator's output is a max-min fair allocation:
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
//     each once, with busyPos pointing at its slot;
//  6. replaying the script on a fresh network reproduces every rate
//     bit-for-bit (determinism).
func FuzzReallocate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 20, 0, 0, 1, 0, 2, 1, 0, 0, 1, 0, 3})
	f.Add([]byte{7, 40, 2, 0, 0, 2, 2, 3, 1, 0, 2, 5, 1, 0, 1, 0, 3, 3, 2, 1, 3})
	f.Add([]byte{1, 10, 0, 0, 255, 255, 0, 0, 128, 2, 0, 0, 3})

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

	engF, engR := sim.NewEngine(), sim.NewReferenceEngine()
	fast, ref := New(gf, engF), NewReference(gr, engR)

	var createdF, createdR []*Flow
	fracs := []float64{0, 0.25, 0.5, 1}

	nOps := 2 + int(d.byte())%40
	for op := 0; op < nOps; op++ {
		switch d.byte() % 4 {
		case 0: // start a flow on 1-3 distinct edges
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
			size := int64(1+int(d.byte()))<<16 + int64(d.byte())
			p := topology.Path{Edges: edges}
			createdF = append(createdF, fast.StartFlow(p, size, nil))
			createdR = append(createdR, ref.StartFlow(p, size, nil))
		case 1: // cancel an earlier flow
			if len(createdF) > 0 {
				i := int(d.byte()) % len(createdF)
				fast.CancelFlow(createdF[i])
				ref.CancelFlow(createdR[i])
			}
		case 2: // rescale a link (degrade / blackout / recover)
			eid := topology.EdgeID(int(d.byte()) % nEdges)
			frac := fracs[int(d.byte())%4]
			fast.SetLinkScale(eid, frac)
			ref.SetLinkScale(eid, frac)
		case 3: // advance the simulation one event (flow completions)
			sf, sr := engF.Step(), engR.Step()
			if sf != sr {
				t.Fatalf("op %d: Step fast=%v ref=%v", op, sf, sr)
			}
		}
		checkMaxMin(t, fast, op)
		checkAgreement(t, fast, ref, createdF, createdR, op)
		checkTimers(t, fast, ref, op)
		checkBusy(t, fast, op)
		checkBusy(t, ref, op)
	}

	bits := make([]uint64, 0, 2*len(createdF)+nEdges)
	for _, fl := range createdF {
		bits = append(bits, math.Float64bits(fl.Rate()), math.Float64bits(fl.Remaining()))
	}
	for e := 0; e < nEdges; e++ {
		bits = append(bits, math.Float64bits(fast.BytesCarried(topology.EdgeID(e))))
	}
	return bits
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
	for _, fl := range n.flows {
		bottlenecked := false
		for _, eid := range fl.Path.Edges {
			c := n.effectiveCapacity(eid)
			if n.EdgeRate(eid) < c*(1-tol)-1e-9 {
				continue // not saturated
			}
			maxRate := 0.0
			for _, g := range n.linkFlows[eid] {
				if g.rate > maxRate {
					maxRate = g.rate
				}
			}
			if fl.rate >= maxRate*(1-tol)-1e-12 {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			t.Fatalf("op %d: flow %d (rate %g) is not bottlenecked on any saturated path link — allocation is not max-min",
				op, fl.ID, fl.rate)
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

// checkTimer asserts n's completion-timer invariant and reports whether the
// timer is armed. Fuzz scenarios queue no engine event besides the timer, so
// the engine's pending count says whether it is armed.
func checkTimer(t *testing.T, n *Network, op int) bool {
	t.Helper()
	// The earliest (finish time, ID), found with an explicit tuple compare
	// over the unordered flow map.
	var want *Flow
	var wantAt sim.Time
	now := n.eng.Now()
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		at := now + f.remaining/f.rate
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
func checkAgreement(t *testing.T, fast, ref *Network, cf, cr []*Flow, op int) {
	t.Helper()
	if a, b := fast.ActiveFlows(), ref.ActiveFlows(); a != b {
		t.Fatalf("op %d: ActiveFlows fast=%d ref=%d", op, a, b)
	}
	for i := range cf {
		a, b := cf[i], cr[i]
		if math.Float64bits(a.Rate()) != math.Float64bits(b.Rate()) {
			t.Fatalf("op %d: flow %d rate fast=%g ref=%g", op, i, a.Rate(), b.Rate())
		}
		if math.Float64bits(a.Remaining()) != math.Float64bits(b.Remaining()) {
			t.Fatalf("op %d: flow %d remaining fast=%g ref=%g", op, i, a.Remaining(), b.Remaining())
		}
	}
}
