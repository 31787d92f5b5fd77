package netsim

import (
	"fmt"
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

// TestHeldTimerKeepsItsPlace pins the completion timer's sequence number
// under a hold. Two identical flows on disjoint links both finish at T = 10
// s. An event scheduled at T before the hold runs first. Inside the hold,
// flow0 starts, an event is posted at T, flow1 starts, and another event is
// posted at T after the last change. Eagerly, flow1's start re-arms the
// timer for flow0 between the two posts, so flow0 completes between them;
// the held network settles at Release but arms the timer under the number
// flow1's start reserved, so the order is the same. Flow0's completion
// re-arms the timer for flow1 behind every event posted before it. A flow
// started and cancelled first leaves the timer event built, so the hold
// re-arms it rather than building it.
func TestHeldTimerKeepsItsPlace(t *testing.T) {
	for _, c := range netsimCombos {
		for _, held := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/held=%v", c.name, held), func(t *testing.T) {
				g, pa, pb := twoLinks()
				eng := c.newEng()
				n := c.newNet(g, eng)
				var got []string
				note := func(s string) func() { return func() { got = append(got, s) } }
				n.CancelFlow(n.StartFlow(pa, 1000, nil))
				eng.Schedule(10, note("before"))
				eng.Post(0, func() {
					if held {
						n.Hold()
					}
					n.StartFlow(pa, 1000, func(*Flow) { got = append(got, "flow0") })
					eng.Post(10, note("between"))
					n.StartFlow(pb, 1000, func(*Flow) { got = append(got, "flow1") })
					eng.Post(10, note("after"))
					if held {
						n.Release()
					}
				})
				eng.Run()
				want := []string{"before", "between", "flow0", "after", "flow1"}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("callback order %v, want %v", got, want)
				}
			})
		}
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

// TestClassTimerTies pins the completion order inside one path class when
// finish times tie in float64 although the remaining bytes differ. The flows
// start at T0 = 2^20 s, where one ulp of the clock is 2^-32 s, each at 2^40
// B/s, so every size below 1152 bytes finishes at T0 + 2^-30. A tie goes to
// the lowest flow ID, which here is the flow with the most bytes left.
//
// In "rounded", the flows differ by one byte, and the survivor still has 75
// bytes left when the first one completes. In "clamped", the charge at the
// first completion moves 1,024 bytes per flow, so the two survivors reach
// zero together, and the lower ID (the larger flow) must still go first.
func TestClassTimerTies(t *testing.T) {
	const t0, rate = 1 << 20, 1 << 40
	for _, tc := range []struct {
		name    string
		sizes   []int64
		clamped bool
	}{
		{"rounded", []int64{1100, 1099}, false},
		{"clamped", []int64{1000, 999, 998}, true},
	} {
		for _, c := range netsimCombos {
			t.Run(tc.name+"/"+c.name, func(t *testing.T) {
				g := topology.NewGraph()
				a := g.AddNode(topology.Node{Kind: topology.KindGPU})
				b := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 1})
				e := g.AddEdge(a, b, topology.LinkEthernet, float64(len(tc.sizes))*rate, 0)
				path := topology.Path{Edges: []topology.EdgeID{e}}
				eng := c.newEng()
				n := c.newNet(g, eng)
				var flows []*Flow
				var got []FlowID
				var at []sim.Time
				eng.Schedule(t0, func() {
					for _, size := range tc.sizes {
						flows = append(flows, n.StartFlow(path, size, func(f *Flow) {
							got = append(got, f.ID)
							at = append(at, eng.Now())
							if len(got) > 1 {
								return
							}
							for _, g := range flows[1:] {
								if (g.Remaining() == 0) != tc.clamped {
									t.Errorf("flow %d has %g bytes left at the first completion, clamped=%v",
										g.ID, g.Remaining(), tc.clamped)
								}
							}
						}))
					}
				})
				eng.Run()
				want := make([]FlowID, len(tc.sizes))
				for i := range want {
					want[i] = flows[i].ID
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("completion order %v, want %v", got, want)
				}
				for i, x := range at {
					if x != t0+1.0/(1<<30) {
						t.Errorf("completion %d at T0%+g, want T0+2^-30", i, x-t0)
					}
				}
			})
		}
	}
}
