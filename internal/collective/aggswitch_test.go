package collective

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"heroserve/internal/topology"
)

// refBestAggSwitch is BestAggSwitch's full scan, kept as the oracle for the
// pruned one: every switch in g.Switches() order, every member priced, and
// the first switch with the strictly smallest worst case kept.
func refBestAggSwitch(g *topology.Graph, r Router, group []topology.NodeID, stepBytes int64) (sw topology.NodeID, delay float64, ok bool) {
	timer := timerFor(r)
	best := math.Inf(1)
	bestSw := topology.NodeID(-1)
	for _, s := range g.Switches() {
		var worst float64
		reachable := true
		for _, k := range group {
			t, found := timer.TransferTime(g, k, s, stepBytes)
			if !found {
				reachable = false
				break
			}
			if t > worst {
				worst = t
			}
		}
		if reachable && worst < best {
			best = worst
			bestSw = s
		}
	}
	if bestSw < 0 {
		return 0, 0, false
	}
	return bestSw, best, true
}

// tieGraph builds two single-GPU servers whose switches tie: core switches
// c0 and c1 are equally far from the pair but in opposite directions from
// each GPU, and c1 comes first in g.Switches(), so the scan, which starts
// from GPU a's nearest switch, reaches the winner c1 second. An isolated
// switch comes first of all, and a switch only GPU b reaches, and reaches
// first, comes last.
func tieGraph() *topology.Graph {
	g := topology.NewGraph()
	g.AddNode(topology.Node{Kind: topology.KindCoreSwitch, Name: "isolated", INASlots: 512})
	c1 := g.AddNode(topology.Node{Kind: topology.KindCoreSwitch, Name: "c1", INASlots: 512})
	c0 := g.AddNode(topology.Node{Kind: topology.KindCoreSwitch, Name: "c0", INASlots: 512})
	a := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 0, GPUType: "A100"})
	b := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 1, GPUType: "A100"})
	only := g.AddNode(topology.Node{Kind: topology.KindAccessSwitch, Name: "b-only", INASlots: 512})
	const bw = topology.Ethernet100G
	g.AddEdge(a, c0, topology.LinkEthernet, bw, 1e-6)
	g.AddEdge(a, c1, topology.LinkEthernet, bw, 3e-6)
	g.AddEdge(b, c0, topology.LinkEthernet, bw, 3e-6)
	g.AddEdge(b, c1, topology.LinkEthernet, bw, 1e-6)
	g.AddEdge(b, only, topology.LinkEthernet, bw, 0.5e-6)
	return g
}

// aggCase is one graph the pruned scan is checked on, with the routers it
// is checked through: a MatrixRouter over every GPU and switch (at its own
// size it reads the cached switch rows and order, at any other it builds
// them), the same matrix priced through its paths, and a StaticRouter.
type aggCase struct {
	name    string
	g       *topology.Graph
	size    int64
	routers []Router
}

var (
	aggCasesOnce sync.Once
	aggCasesList []*aggCase
)

// aggCases returns the testbed, a testbed with one GPU's and one switch's
// links drained, two 8-track pods, and the tie graph.
func aggCases() []*aggCase {
	aggCasesOnce.Do(func() {
		drained := topology.Testbed()
		for _, n := range []topology.NodeID{drained.GPUs()[5], drained.Switches()[1]} {
			for _, eid := range drained.Incident(n) {
				drained.Edge(eid).Available = 0
			}
		}
		for _, c := range []struct {
			name string
			g    *topology.Graph
		}{
			{"testbed", topology.Testbed()},
			{"testbed-drained", drained},
			{"pod8-4", topology.Pod8Tracks(4)},
			{"pod8-24", topology.Pod8Tracks(24)},
			{"ties", tieGraph()},
		} {
			const size = 3 << 20
			working := append(append([]topology.NodeID{}, c.g.GPUs()...), c.g.Switches()...)
			mr := MatrixRouter{M: c.g.NewTrees(working, size, FabricAllow(c.g)).Matrix(working)}
			aggCasesList = append(aggCasesList, &aggCase{
				name:    c.name,
				g:       c.g,
				size:    size,
				routers: []Router{mr, routeOnly{mr}, NewStaticRouter(c.g)},
			})
		}
	})
	return aggCasesList
}

// checkAggSwitch compares the pruned scan with the full one on a group.
func checkAggSwitch(t *testing.T, c *aggCase, r Router, members []topology.NodeID, bytes int64) {
	t.Helper()
	sw, d, ok := BestAggSwitch(c.g, r, NewGroup(c.g, members), bytes)
	wsw, wd, wok := refBestAggSwitch(c.g, r, members, bytes)
	if sw != wsw || math.Float64bits(d) != math.Float64bits(wd) || ok != wok {
		t.Fatalf("%s %T, group %v, %d bytes: switch %d delay %v ok %v, full scan %d %v %v",
			c.name, r, members, bytes, sw, d, ok, wsw, wd, wok)
	}
}

// TestBestAggSwitchMatchesFullScan: the pruned scan picks the full scan's
// switch, with its delay bit for bit, on random groups (duplicates
// included) of every case, through every router, at the matrix's size and
// at another one.
func TestBestAggSwitchMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, c := range aggCases() {
		gpus := c.g.GPUs()
		for trial := 0; trial < 100; trial++ {
			members := make([]topology.NodeID, 1+rng.Intn(min(16, 2*len(gpus))))
			for i := range members {
				members[i] = gpus[rng.Intn(len(gpus))]
			}
			for _, r := range c.routers {
				for _, bytes := range []int64{c.size, c.size / 3} {
					checkAggSwitch(t, c, r, members, bytes)
				}
			}
		}
	}
}

// TestBestAggSwitchTies: on the tie graph the winner is c1, the first of
// the two tied cores in g.Switches() order though the scan reaches it
// second; a group that only reaches the last switch picks it; and the
// drained testbed's dead GPU reaches no switch.
func TestBestAggSwitchTies(t *testing.T) {
	for _, c := range aggCases() {
		switch c.name {
		case "ties":
			a, b := c.g.GPUs()[0], c.g.GPUs()[1]
			sws := c.g.Switches()
			for _, r := range c.routers {
				if sw, _, ok := BestAggSwitch(c.g, r, NewGroup(c.g, []topology.NodeID{a, b}), c.size); !ok || sw != sws[1] {
					t.Errorf("%T: tied pair aggregates at %d (ok %v), want c1 (%d)", r, sw, ok, sws[1])
				}
				if sw, _, ok := BestAggSwitch(c.g, r, NewGroup(c.g, []topology.NodeID{b}), c.size); !ok || sw != sws[3] {
					t.Errorf("%T: GPU b aggregates at %d (ok %v), want its own switch (%d)", r, sw, ok, sws[3])
				}
				checkAggSwitch(t, c, r, []topology.NodeID{b, a}, c.size)
			}
		case "testbed-drained":
			dead := c.g.GPUs()[5]
			for _, r := range c.routers {
				if _, _, ok := BestAggSwitch(c.g, r, NewGroup(c.g, []topology.NodeID{c.g.GPUs()[0], dead}), c.size); ok {
					t.Errorf("%T: a group with a drained GPU found a switch", r)
				}
			}
		}
	}
}

// FuzzBestAggSwitch drives the differential check with fuzzed groups: the
// first byte picks the case, the second the router and the size, and every
// further byte a member.
func FuzzBestAggSwitch(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3})
	f.Add([]byte{1, 2, 5, 9, 12, 4})
	f.Add([]byte{2, 1, 0, 9, 17, 30})
	f.Add([]byte{3, 3, 7, 77, 150, 191, 8})
	f.Add([]byte{4, 0, 0, 1})
	f.Add([]byte{4, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 2+32 {
			return
		}
		cases := aggCases()
		c := cases[int(data[0])%len(cases)]
		r := c.routers[int(data[1])%len(c.routers)]
		bytes := c.size
		if data[1]&0x80 != 0 {
			bytes = c.size/3 + int64(data[1])
		}
		gpus := c.g.GPUs()
		members := make([]topology.NodeID, 0, len(data)-2)
		for _, b := range data[2:] {
			members = append(members, gpus[int(b)%len(gpus)])
		}
		checkAggSwitch(t, c, r, members, bytes)
	})
}
