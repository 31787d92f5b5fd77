package collective

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"heroserve/internal/netsim"
	"heroserve/internal/sim"
	"heroserve/internal/topology"
)

// dualPathGraph: a and b joined via two parallel switches.
func dualPathGraph() (*topology.Graph, topology.NodeID, topology.NodeID, topology.NodeID, topology.NodeID) {
	g := topology.NewGraph()
	a := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 0})
	b := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 1})
	s1 := g.AddNode(topology.Node{Kind: topology.KindAccessSwitch, INASlots: 8})
	s2 := g.AddNode(topology.Node{Kind: topology.KindAccessSwitch, INASlots: 8})
	g.AddEdge(a, s1, topology.LinkEthernet, 1e9, 1e-6)
	g.AddEdge(s1, b, topology.LinkEthernet, 1e9, 1e-6)
	g.AddEdge(a, s2, topology.LinkEthernet, 1e9, 1e-6)
	g.AddEdge(s2, b, topology.LinkEthernet, 1e9, 1e-6)
	return g, a, b, s1, s2
}

func TestLoadAwareRouterAvoidsHotPath(t *testing.T) {
	g, a, b, s1, _ := dualPathGraph()
	eng := sim.NewEngine()
	net := netsim.New(g, eng)
	r := NewLoadAwareRouter(g, 3)
	r.Bind(net)

	p0, ok := r.Route(a, b, 1<<20)
	if !ok {
		t.Fatal("no route")
	}
	// Saturate whichever path it picked; the next route must avoid it.
	net.StartFlow(p0, 1<<30, nil)
	p1, ok := r.Route(a, b, 1<<20)
	if !ok {
		t.Fatal("no alternative route")
	}
	shares := func(x, y topology.Path) bool {
		in := map[topology.EdgeID]bool{}
		for _, e := range x.Edges {
			in[e] = true
		}
		for _, e := range y.Edges {
			if in[e] {
				return true
			}
		}
		return false
	}
	if shares(p0, p1) {
		t.Errorf("load-aware route reused the saturated path: %v then %v", p0.Nodes, p1.Nodes)
	}
	_ = s1
	eng.Run()
}

func TestLoadAwareRouterUnboundFallsBackToStatic(t *testing.T) {
	g, a, b, _, _ := dualPathGraph()
	r := NewLoadAwareRouter(g, 3)
	p, ok := r.Route(a, b, 1<<20)
	if !ok || p.Hops() != 2 {
		t.Fatalf("unbound route = %v ok=%v", p, ok)
	}
	// Same-node route works.
	if _, ok := r.Route(a, a, 1); !ok {
		t.Error("self route failed")
	}
}

func TestLoadAwareRouterCandidateCache(t *testing.T) {
	g := topology.Testbed()
	eng := sim.NewEngine()
	net := netsim.New(g, eng)
	r := NewLoadAwareRouter(g, 2)
	r.Bind(net)
	gpus := g.GPUs()
	// Repeated routing hits the cache and stays deterministic on an idle
	// fabric.
	p1, _ := r.Route(gpus[0], gpus[12], 4<<20)
	p2, _ := r.Route(gpus[0], gpus[12], 4<<20)
	if !slices.Equal(p1.Edges, p2.Edges) {
		t.Error("idle-fabric routing not stable")
	}
	if len(r.cache) == 0 {
		t.Error("no candidates cached")
	}
}

func TestJoinPathsRejectsLoops(t *testing.T) {
	g, a, b, s1, _ := dualPathGraph()
	st := NewStaticRouter(g)
	p1, _ := st.Route(a, s1, 1)
	back, _ := st.Route(s1, a, 1)
	if _, ok := joinPaths(p1, back); ok {
		t.Error("loop join accepted")
	}
	p2, _ := st.Route(s1, b, 1)
	joined, ok := joinPaths(p1, p2)
	if !ok || joined.Hops() != 2 {
		t.Errorf("valid join failed: %v ok=%v", joined, ok)
	}
	// Mismatched middle nodes reject.
	if _, ok := joinPaths(p2, p1); ok {
		t.Error("mismatched join accepted")
	}
}

func TestLoadAwareRouterInsideComm(t *testing.T) {
	// A Comm wired with the load-aware router completes collectives and
	// transfers exactly like the static one.
	g := topology.Testbed()
	eng := sim.NewEngine()
	net := netsim.New(g, eng)
	r := NewLoadAwareRouter(g, 3)
	r.Bind(net)
	c := NewComm(net, r)
	completed := 0
	c.HeteroAllReduce(g.GPUs(), g.Switches()[0], 4<<20, 2, func() { completed++ })
	c.Transfer(g.GPUs()[0], g.GPUs()[15], 16<<20, func() { completed++ })
	eng.Run()
	if completed != 2 {
		t.Fatalf("completed %d/2", completed)
	}
}

// materializedCandidates is the original candidate builder, kept as the
// oracle for the tree-walked ranking: it builds every a -> sw -> b detour as
// a Path, prices each with TransferTime, sorts them all with sort.Slice, and
// keeps the first maxCandidates distinct edge sequences.
func materializedCandidates(g *topology.Graph, st *StaticRouter, maxCandidates int, a, b topology.NodeID, size int64) []topology.Path {
	var out []topology.Path
	seen := map[string]bool{}
	add := func(p topology.Path, okay bool) {
		if !okay || !p.Valid() {
			return
		}
		sig := fmt.Sprint(p.Edges)
		if seen[sig] {
			return
		}
		seen[sig] = true
		out = append(out, p)
	}
	direct, ok := st.Route(a, b, size)
	add(direct, ok)
	type detour struct {
		p    topology.Path
		cost float64
	}
	var ds []detour
	for _, sw := range g.Switches() {
		p1, ok1 := st.Route(a, sw, size)
		p2, ok2 := st.Route(sw, b, size)
		if !ok1 || !ok2 {
			continue
		}
		joined, ok := joinPaths(p1, p2)
		if !ok {
			continue
		}
		ds = append(ds, detour{p: joined, cost: joined.TransferTime(g, size)})
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].cost < ds[j].cost })
	for _, d := range ds {
		if len(out) >= maxCandidates {
			break
		}
		add(d.p, true)
	}
	return out
}

// fanGraph joins GPUs a and b through n parallel switches, whose links take
// one of three capacities in an interleaved pattern: n distinct detours in
// three cost tiers, so which ones make the candidate list is decided by the
// sort's tie order within the cheapest tier (pdqsort is not stable there).
func fanGraph(n int) *topology.Graph {
	g := topology.NewGraph()
	a := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 0})
	b := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 1})
	for i := 0; i < n; i++ {
		sw := g.AddNode(topology.Node{Kind: topology.KindAccessSwitch, INASlots: 8})
		capacity := float64(1+(i*7)%3) * 1e9
		g.AddEdge(a, sw, topology.LinkEthernet, capacity, 1e-6)
		g.AddEdge(sw, b, topology.LinkEthernet, capacity, 1e-6)
	}
	return g
}

// TestCandidatesMatchMaterialized checks the tree-walked detour ranking
// against the materialize-everything oracle for every GPU pair and three
// size classes: same paths, same order. The pod's equal-cost detours mostly
// collapse to the same route; the 16-switch fan's do not, so its candidate
// list depends on the sort's tie order (a stable sort fails it). The
// drained testbed prices some detours at +Inf.
func TestCandidatesMatchMaterialized(t *testing.T) {
	drained := topology.Testbed()
	for i := 0; i < drained.NumEdges(); i += 5 {
		drained.Edge(topology.EdgeID(i)).Available = 0
	}
	graphs := []struct {
		name string
		g    *topology.Graph
	}{
		{"pod8", topology.Pod8Tracks(24)},
		{"testbed", topology.Testbed()},
		{"testbed-drained", drained},
		{"fan16", fanGraph(16)},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			r := NewLoadAwareRouter(g, 3)
			oracle := NewStaticRouter(g)
			for _, a := range g.GPUs() {
				for _, b := range g.GPUs() {
					for _, size := range []int64{1 << 10, 1 << 20, 1 << 30} {
						got := r.candidates(a, b, size)
						want := materializedCandidates(g, oracle, 3, a, b, size)
						if len(got) != len(want) {
							t.Fatalf("%d->%d size %d: %d candidates, want %d", a, b, size, len(got), len(want))
						}
						for i := range want {
							if !slices.Equal(got[i].Nodes, want[i].Nodes) || !slices.Equal(got[i].Edges, want[i].Edges) {
								t.Fatalf("%d->%d size %d: candidate %d = %v, want %v", a, b, size, i, got[i].Nodes, want[i].Nodes)
							}
						}
					}
				}
				clear(r.cache) // bound the test's heap; the ranking is recomputed
			}
		})
	}
}

// TestRankDetoursAllocatesNothingWarm pins the ranking half of a candidates
// miss at zero allocations once the trees and scratch buffers are warm.
func TestRankDetoursAllocatesNothingWarm(t *testing.T) {
	g := topology.Pod8Tracks(24)
	r := NewLoadAwareRouter(g, 3)
	gpus := g.GPUs()
	a, b := gpus[0], gpus[len(gpus)-1]
	r.rankDetours(a, b, 4<<20)
	if len(r.rank.sw) < 2 {
		t.Fatalf("ranked %d detours, want several", len(r.rank.sw))
	}
	for i := 1; i < len(r.rank.cost); i++ {
		if r.rank.cost[i] < r.rank.cost[i-1] || math.IsNaN(r.rank.cost[i]) {
			t.Fatalf("detours not in ascending cost: %v", r.rank.cost)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.rankDetours(a, b, 4<<20) }); allocs != 0 {
		t.Errorf("warm rankDetours allocates %.0f objects, want 0", allocs)
	}
}

// BenchmarkLoadAwareCandidates measures one candidates miss on the 8-track
// pod: rank the 18 switch detours of a cross-track GPU pair from warm trees
// and build the kept candidates.
func BenchmarkLoadAwareCandidates(b *testing.B) {
	g := topology.Pod8Tracks(24)
	r := NewLoadAwareRouter(g, 3)
	gpus := g.GPUs()
	src, dst := gpus[0], gpus[len(gpus)-1]
	r.candidates(src, dst, 4<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(r.cache)
		r.candidates(src, dst, 4<<20)
	}
}
