package netsim

import (
	"testing"

	"heroserve/internal/sim"
	"heroserve/internal/topology"
)

// classPair is a fast and a reference network over copies of one chain of
// links, driven in lockstep.
type classPair struct {
	fast, ref  *Network
	engF, engR *sim.Engine
	// createdF holds the fast network's flows and pathsF their paths, in
	// start order; a flow is valid until it delivers.
	createdF []*flow
	pathsF   []topology.Path
}

func newClassPair(bws ...float64) *classPair {
	build := func() *topology.Graph {
		g := topology.NewGraph()
		prev := g.AddNode(topology.Node{Kind: topology.KindGPU})
		for _, bw := range bws {
			next := g.AddNode(topology.Node{Kind: topology.KindGPU})
			g.AddEdge(prev, next, topology.LinkEthernet, bw, 0)
			prev = next
		}
		return g
	}
	p := &classPair{engF: sim.NewEngine(), engR: sim.NewReferenceEngine()}
	p.fast, p.ref = New(build(), p.engF), NewReference(build(), p.engR)
	return p
}

// start starts one flow on each network. The two get separate copies of
// edges, as two callers' path buffers would be.
func (p *classPair) start(t *testing.T, size int64, edges ...topology.EdgeID) {
	t.Helper()
	pf := topology.Path{Edges: append([]topology.EdgeID(nil), edges...)}
	pr := topology.Path{Edges: append([]topology.EdgeID(nil), edges...)}
	p.createdF = append(p.createdF, startFlow(p.fast, pf, size, nil))
	p.pathsF = append(p.pathsF, pf)
	startFlow(p.ref, pr, size, nil)
	p.check(t)
}

// step runs one event on both engines, checking after it, and reports
// whether there was one.
func (p *classPair) step(t *testing.T) bool {
	t.Helper()
	sf, sr := p.engF.Step(), p.engR.Step()
	if sf != sr {
		t.Fatalf("Step fast=%v ref=%v", sf, sr)
	}
	if sf {
		p.check(t)
	}
	return sf
}

// drain steps both engines to the end, checking after every event.
func (p *classPair) drain(t *testing.T) {
	t.Helper()
	for p.step(t) {
	}
	checkDrained(t, p.fast)
}

func (p *classPair) check(t *testing.T) {
	t.Helper()
	op := len(p.createdF)
	checkMaxMin(t, p.fast, op)
	checkAgreement(t, p.fast, p.ref, op)
	checkTimers(t, p.fast, p.ref, op)
	checkClasses(t, p.fast, op)
}

// TestClassOwnsItsPath checks that a path class keeps its own copy of the
// edges: two flows on equal edge sequences in separate buffers share a
// class, and overwriting the first flow's buffer after it delivered must not
// move the class the second flow still sits in.
func TestClassOwnsItsPath(t *testing.T) {
	p := newClassPair(100, 50, 80)
	p.start(t, 1000, 0, 1)
	p.start(t, 2000, 0, 1)
	if a, b := p.createdF[0].class, p.createdF[1].class; a != b {
		t.Fatal("flows on equal edge sequences sit in different classes")
	}
	p.step(t) // the smaller first flow delivers
	if n := p.fast.ActiveFlows(); n != 1 {
		t.Fatalf("%d flows active after the first delivery, want 1", n)
	}
	// The first flow has left: its caller may reuse the buffer.
	copy(p.pathsF[0].Edges, []topology.EdgeID{2, 2})
	p.check(t)
	p.start(t, 500, 1, 2)
	p.start(t, 700, 0, 1)
	p.drain(t)
}

// TestPathRepeatingAnEdge checks a path that crosses one link twice: its
// class is listed on that link once, and the link still counts the flow
// twice, exactly as the reference allocator does.
func TestPathRepeatingAnEdge(t *testing.T) {
	// The flow crossing link 0 twice is alone there, so link 0 counts two
	// while two flows are unfrozen, yet its round is not the last: the flow
	// on link 1 must still see link 1's capacity go down.
	q := newClassPair(100, 1000)
	q.start(t, 1000, 0, 1, 0)
	q.start(t, 1000, 1)
	if got := q.fast.rateOf(q.createdF[1]); got != 950 {
		t.Errorf("the flow on link 1 runs at %g, want 950", got)
	}
	q.drain(t)

	p := newClassPair(100, 50, 80)
	p.start(t, 1000, 0, 1, 0)
	p.start(t, 3000, 0)
	p.start(t, 2000, 0, 1, 0)
	p.start(t, 1500, 1, 2)
	if got := len(p.fast.linkClasses[0]); got != 2 {
		t.Errorf("link 0 lists %d classes, want 2", got)
	}
	p.step(t) // a flow delivers while the others still cross link 0
	p.start(t, 4000, 2, 1, 2)
	p.drain(t)
}
