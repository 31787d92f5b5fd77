package netsim

import (
	"math/rand"
	"reflect"
	"testing"

	"heroserve/internal/sim"
	"heroserve/internal/topology"
)

// netsimCombos pairs each allocator with each event engine. "wheel" names
// the fast engine (sim.NewEngine), after the timer wheel it once was, so test
// names stay comparable across versions.
var netsimCombos = []struct {
	name   string
	newNet func(*topology.Graph, *sim.Engine) *Network
	newEng func() *sim.Engine
}{
	{"fast/wheel", New, sim.NewEngine},
	{"fast/heap", New, sim.NewReferenceEngine},
	{"ref/wheel", NewReference, sim.NewEngine},
	{"ref/heap", NewReference, sim.NewReferenceEngine},
}

// twoLinks builds two disjoint 100 B/s links with zero latency.
func twoLinks() (*topology.Graph, topology.Path, topology.Path) {
	g := topology.NewGraph()
	var ids [4]topology.NodeID
	for i := range ids {
		ids[i] = g.AddNode(topology.Node{Kind: topology.KindGPU, Server: i})
	}
	a := g.AddEdge(ids[0], ids[1], topology.LinkEthernet, 100, 0)
	b := g.AddEdge(ids[2], ids[3], topology.LinkEthernet, 100, 0)
	return g, topology.Path{Edges: []topology.EdgeID{a}}, topology.Path{Edges: []topology.EdgeID{b}}
}

// TestCompletionTieOrder pins FIFO tie-breaking between flow completions and
// foreign engine events due at the same instant. Two identical flows on
// disjoint links both finish at T = 10 s. An event scheduled at T before the
// flows start runs before either completion. The first completion (lower
// flow ID) re-times the survivor at T with a fresh sequence number, so an
// event scheduled at T after the flows started runs between the two.
func TestCompletionTieOrder(t *testing.T) {
	for _, c := range netsimCombos {
		t.Run(c.name, func(t *testing.T) {
			g, pa, pb := twoLinks()
			eng := c.newEng()
			n := c.newNet(g, eng)
			var got []string
			note := func(s string) func() { return func() { got = append(got, s) } }
			eng.Schedule(10, note("before"))
			n.StartFlow(pa, 1000, func(*Flow) { got = append(got, "flow0") })
			n.StartFlow(pb, 1000, func(*Flow) { got = append(got, "flow1") })
			eng.Schedule(10, note("after"))
			eng.Run()
			want := []string{"before", "flow0", "after", "flow1"}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("callback order %v, want %v", got, want)
			}
			if eng.Now() != 10 {
				t.Errorf("run ended at %g, want 10", eng.Now())
			}
		})
	}
}

// TestOneCompletionEventPerNetwork pins the queue footprint of a network: one
// engine event no matter how many flows are active, and one re-arm per
// reallocation.
func TestOneCompletionEventPerNetwork(t *testing.T) {
	g := topology.Testbed()
	eng := sim.NewEngine()
	n := New(g, eng)
	paths := buildPaths(t, g, rand.New(rand.NewSource(5)), 16)
	for i, p := range paths {
		n.StartFlow(p, int64(1<<30+i), nil)
	}
	if got := n.ActiveFlows(); got != 16 {
		t.Fatalf("ActiveFlows = %d, want 16", got)
	}
	if got := eng.Pending(); got != 1 {
		t.Errorf("Pending = %d with 16 active flows, want 1", got)
	}
	eid := paths[0].Edges[0]
	before := eng.QueueStats().Cancelled
	n.SetLinkScale(eid, 0.5)
	n.SetLinkScale(eid, 1)
	if d := eng.QueueStats().Cancelled - before; d > 2 {
		t.Errorf("two reallocations cancelled %d queued events, want at most 2", d)
	}
	if got := eng.Pending(); got != 1 {
		t.Errorf("Pending = %d after rescaling, want 1", got)
	}
}

// TestCancelLastFlow cancels the only active flow mid-transfer: the network
// must leave no work queued and no path class live, and the completion
// callback must never run.
func TestCancelLastFlow(t *testing.T) {
	for _, c := range netsimCombos {
		t.Run(c.name, func(t *testing.T) {
			g, pa, _ := twoLinks()
			eng := c.newEng()
			n := c.newNet(g, eng)
			ran := false
			f := n.StartFlow(pa, 1000, func(*Flow) { ran = true })
			eng.Schedule(5, func() {
				n.CancelFlow(f)
				if w := eng.PendingWork(); w != 0 {
					t.Errorf("PendingWork = %d after cancelling the last flow, want 0", w)
				}
			})
			eng.Run()
			if ran {
				t.Error("cancelled flow's completion callback ran")
			}
			if eng.Now() != 5 {
				t.Errorf("run ended at %g, want 5", eng.Now())
			}
			if n.ActiveFlows() != 0 {
				t.Errorf("ActiveFlows = %d, want 0", n.ActiveFlows())
			}
			checkDrained(t, n)
		})
	}
}
