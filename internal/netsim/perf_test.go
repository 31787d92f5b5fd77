package netsim

import (
	"testing"

	"heroserve/internal/sim"
	"heroserve/internal/topology"
)

// recProbe records every reallocation observation.
type recProbe struct {
	calls  int
	flows  []int
	links  []int
	rounds []int
}

func (p *recProbe) ReallocStart() int64 { return 0 }

func (p *recProbe) ReallocDone(tok int64, links, flows, rounds int) {
	p.calls++
	p.links = append(p.links, links)
	p.flows = append(p.flows, flows)
	p.rounds = append(p.rounds, rounds)
}

// probeTopology: two disjoint link pairs so fast-path components are smaller
// than the whole network.
func probeTopology(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	a := g.AddNode(topology.Node{Name: "a"})
	b := g.AddNode(topology.Node{Name: "b"})
	c := g.AddNode(topology.Node{Name: "c"})
	d := g.AddNode(topology.Node{Name: "d"})
	g.AddEdge(a, b, topology.LinkEthernet, 100, 0)
	g.AddEdge(c, d, topology.LinkEthernet, 100, 0)
	return g
}

func pathVia(g *topology.Graph, eid topology.EdgeID) topology.Path {
	e := g.Edge(eid)
	return topology.Path{Nodes: []topology.NodeID{e.A, e.B}, Edges: []topology.EdgeID{eid}}
}

func TestPerfProbeObservesReallocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(*topology.Graph, *sim.Engine) *Network
	}{
		{"fast", New},
		{"ref", NewReference},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := probeTopology(t)
			eng := sim.NewEngine()
			n := tc.mk(g, eng)
			probe := &recProbe{}
			n.SetPerf(probe)

			startFlow(n, pathVia(g, 0), 1000, nil)
			startFlow(n, pathVia(g, 0), 1000, nil)
			startFlow(n, pathVia(g, 1), 500, nil)
			eng.Run()

			if probe.calls == 0 {
				t.Fatal("probe saw no reallocations")
			}
			// Every observation names at least one flow and one round while
			// flows were active; the fast path's components never exceed the
			// global size the reference would report.
			for i := 0; i < probe.calls; i++ {
				if probe.flows[i] > 0 && (probe.links[i] < 1 || probe.rounds[i] < 1) {
					t.Fatalf("obs %d: links=%d flows=%d rounds=%d",
						i, probe.links[i], probe.flows[i], probe.rounds[i])
				}
				if probe.flows[i] > 3 || probe.links[i] > 2 {
					t.Fatalf("obs %d reports more work than exists: links=%d flows=%d",
						i, probe.links[i], probe.flows[i])
				}
			}
		})
	}
}

// TestPerfProbeComponentSmallerThanGlobal checks the headline claim the
// observatory is built to surface: on disjoint traffic the fast path's
// component flow count is strictly below the reference's global one.
func TestPerfProbeComponentSmallerThanGlobal(t *testing.T) {
	run := func(mk func(*topology.Graph, *sim.Engine) *Network) []int {
		g := probeTopology(t)
		eng := sim.NewEngine()
		n := mk(g, eng)
		probe := &recProbe{}
		n.SetPerf(probe)
		// Two flows on edge 0, then one on edge 1: the edge-1 start only
		// touches its own component on the fast path.
		startFlow(n, pathVia(g, 0), 1e6, nil)
		startFlow(n, pathVia(g, 0), 1e6, nil)
		startFlow(n, pathVia(g, 1), 1e6, nil)
		eng.Run()
		return probe.flows
	}
	fast := run(New)
	ref := run(NewReference)
	if len(fast) != len(ref) {
		t.Fatalf("reallocation counts differ: fast %d, ref %d", len(fast), len(ref))
	}
	// The third observation is the edge-1 flow start: 1 flow in its component
	// on the fast path vs all 3 globally on the reference.
	if fast[2] >= ref[2] {
		t.Fatalf("fast component (%d flows) not smaller than global (%d flows)", fast[2], ref[2])
	}
}

// TestPerfProbeDoesNotPerturb ensures installing a probe changes nothing
// observable: completion times must be identical with and without it.
func TestPerfProbeDoesNotPerturb(t *testing.T) {
	run := func(probe PerfProbe) []sim.Time {
		g := probeTopology(t)
		eng := sim.NewEngine()
		n := New(g, eng)
		if probe != nil {
			n.SetPerf(probe)
		}
		var done []sim.Time
		cb := func() { done = append(done, eng.Now()) }
		startFlow(n, pathVia(g, 0), 1000, cb)
		startFlow(n, pathVia(g, 0), 700, cb)
		startFlow(n, pathVia(g, 1), 300, cb)
		eng.Run()
		return done
	}
	plain := run(nil)
	probed := run(&recProbe{})
	if len(plain) != len(probed) {
		t.Fatalf("completion counts differ: %d vs %d", len(plain), len(probed))
	}
	for i := range plain {
		if plain[i] != probed[i] {
			t.Fatalf("completion %d diverged: %v vs %v", i, plain[i], probed[i])
		}
	}
}
