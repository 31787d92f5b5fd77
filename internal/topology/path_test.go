package topology

import (
	"math"
	"math/rand"
	"testing"
)

func TestDijkstraLine(t *testing.T) {
	g, ids := line(t, 1e9, 2e9, 4e9)
	sp := g.Dijkstra(ids[0], TransferCost(1<<20), nil)
	p, ok := sp.PathTo(ids[3])
	if !ok {
		t.Fatal("unreachable")
	}
	if p.Hops() != 3 {
		t.Errorf("hops = %d, want 3", p.Hops())
	}
	for i := range p.Edges {
		if e := g.Edge(p.Edges[i]); e.Other(p.Nodes[i]) != p.Nodes[i+1] || p.Nodes[i] != ids[i] {
			t.Errorf("hop %d: edge %d does not join %d to %d", i, p.Edges[i], p.Nodes[i], p.Nodes[i+1])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { sp.PathTo(ids[3]) }); allocs != 2 {
		t.Errorf("PathTo allocates %.0f objects, want 2 (nodes and edges)", allocs)
	}
	wantDist := float64(1<<20)/1e9 + float64(1<<20)/2e9 + float64(1<<20)/4e9 + 3e-6
	if math.Abs(sp.Dist[ids[3]]-wantDist) > 1e-12 {
		t.Errorf("dist = %g, want %g", sp.Dist[ids[3]], wantDist)
	}
}

func TestDijkstraPicksFasterDetour(t *testing.T) {
	// a--b direct on a slow link; a--c--b via two fast links. For a large
	// message the detour wins; for size 0 the direct hop wins (fewer hops,
	// lower fixed latency).
	g := NewGraph()
	a := g.AddNode(Node{Kind: KindGPU, Server: 0})
	b := g.AddNode(Node{Kind: KindGPU, Server: 1})
	c := g.AddNode(Node{Kind: KindGPU, Server: 2})
	g.AddEdge(a, b, LinkEthernet, 1e9, 1e-6)
	g.AddEdge(a, c, LinkNVLink, 600e9, 1e-6)
	g.AddEdge(c, b, LinkNVLink, 600e9, 1e-6)

	sp := g.Dijkstra(a, TransferCost(64<<20), nil)
	p, _ := sp.PathTo(b)
	if p.Hops() != 2 {
		t.Errorf("large message: hops = %d, want detour via c", p.Hops())
	}
	sp0 := g.Dijkstra(a, TransferCost(0), nil)
	p0, _ := sp0.PathTo(b)
	if p0.Hops() != 1 {
		t.Errorf("zero-size message: hops = %d, want direct", p0.Hops())
	}
}

func TestDijkstraRelayRestriction(t *testing.T) {
	// a--x--b where x is forbidden as an intermediate: b unreachable.
	g := NewGraph()
	a := g.AddNode(Node{Kind: KindGPU, Server: 0})
	x := g.AddNode(Node{Kind: KindHost})
	b := g.AddNode(Node{Kind: KindGPU, Server: 1})
	g.AddEdge(a, x, LinkEthernet, 1e9, 0)
	g.AddEdge(x, b, LinkEthernet, 1e9, 0)

	allow := func(n NodeID) bool { return g.Node(n).Kind != KindHost }
	sp := g.Dijkstra(a, TransferCost(1), allow)
	if !math.IsInf(sp.Dist[b], 1) {
		t.Error("path through forbidden relay should be unreachable")
	}
	// x itself is still reachable as an endpoint.
	if math.IsInf(sp.Dist[x], 1) {
		t.Error("forbidden node should still be reachable as endpoint")
	}
}

func TestDijkstraZeroAvailableEdge(t *testing.T) {
	g, ids := line(t, 1e9)
	g.Edge(0).Available = 0
	sp := g.Dijkstra(ids[0], TransferCost(1), nil)
	if !math.IsInf(sp.Dist[ids[1]], 1) {
		t.Error("drained edge should be unusable")
	}
}

func TestPathToSelf(t *testing.T) {
	g, ids := line(t, 1e9)
	sp := g.Dijkstra(ids[0], TransferCost(1), nil)
	p, ok := sp.PathTo(ids[0])
	if !ok || p.Hops() != 0 || len(p.Nodes) != 1 {
		t.Errorf("self path = %+v, ok=%v", p, ok)
	}
}

func TestPathTransferTimeAndBottleneck(t *testing.T) {
	g, ids := line(t, 2e9, 1e9)
	sp := g.Dijkstra(ids[0], TransferCost(1<<20), nil)
	p, _ := sp.PathTo(ids[2])
	size := int64(1 << 20)
	want := float64(size)/2e9 + float64(size)/1e9 + 2e-6
	if got := p.TransferTime(g, size); math.Abs(got-want) > 1e-12 {
		t.Errorf("TransferTime = %g, want %g", got, want)
	}
	if got := p.Bottleneck(g); got != 1e9 {
		t.Errorf("Bottleneck = %g, want 1e9", got)
	}
	// Drained edge makes the transfer time infinite.
	g.Edge(1).Available = 0
	if !math.IsInf(p.TransferTime(g, size), 1) {
		t.Error("TransferTime over drained edge should be +Inf")
	}
	var empty Path
	if !math.IsInf(empty.Bottleneck(g), 1) {
		t.Error("empty path bottleneck should be +Inf")
	}
}

func TestMatrixSymmetricOnUndirectedGraph(t *testing.T) {
	g := Testbed()
	gpus := g.GPUs()
	m := g.NewMatrix(gpus, TransferCost(1<<20), nil)
	for _, a := range gpus {
		for _, b := range gpus {
			dab, dba := m.Dist(a, b), m.Dist(b, a)
			if math.Abs(dab-dba) > 1e-12 {
				t.Fatalf("asymmetric distance %v<->%v: %g vs %g", a, b, dab, dba)
			}
		}
	}
	if m.Dist(gpus[0], gpus[0]) != 0 {
		t.Error("self distance not zero")
	}
	out := NodeID(g.NumNodes() - 1) // a host, outside working set
	if !math.IsInf(m.Dist(gpus[0], out), 1) {
		t.Error("distance to node outside working set should be +Inf")
	}
	if _, ok := m.PathBetween(gpus[0], out); ok {
		t.Error("PathBetween outside working set should fail")
	}
	if !m.Contains(gpus[0]) || m.Contains(out) {
		t.Error("Contains wrong")
	}
}

// Property: Dijkstra distances satisfy the triangle inequality over the
// matrix working set, and every returned path's recomputed cost matches the
// reported distance.
func TestQuickDijkstraInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := NewGraph()
		n := rng.Intn(12) + 3
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode(Node{Kind: KindGPU, Server: i})
		}
		// Random connected-ish graph: a spanning chain plus random extras.
		for i := 1; i < n; i++ {
			g.AddEdge(ids[i-1], ids[i], LinkEthernet, 1e9*(rng.Float64()+0.1), 1e-6)
		}
		for k := 0; k < n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddEdge(ids[a], ids[b], LinkEthernet, 1e9*(rng.Float64()+0.1), 1e-6)
			}
		}
		size := int64(rng.Intn(1<<22) + 1)
		cost := TransferCost(size)
		m := g.NewMatrix(ids, cost, nil)
		for _, a := range ids {
			for _, b := range ids {
				for _, c := range ids {
					if m.Dist(a, c) > m.Dist(a, b)+m.Dist(b, c)+1e-9 {
						t.Fatalf("triangle inequality violated")
					}
				}
				p, ok := m.PathBetween(a, b)
				if !ok {
					continue
				}
				var sum float64
				for _, eid := range p.Edges {
					sum += cost(g.Edge(eid))
				}
				if math.Abs(sum-m.Dist(a, b)) > 1e-9 {
					t.Fatalf("path cost %g != dist %g", sum, m.Dist(a, b))
				}
				// Path endpoints must match.
				if p.Nodes[0] != a || p.Nodes[len(p.Nodes)-1] != b {
					t.Fatalf("path endpoints wrong")
				}
			}
		}
	}
}

func BenchmarkDijkstraTestbed(b *testing.B) {
	g := Testbed()
	src := g.GPUs()[0]
	cost := TransferCost(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(src, cost, nil)
	}
}

func BenchmarkAllPairsPod(b *testing.B) {
	g := Pod2Tracks(12)
	gpus := g.GPUs()
	cost := TransferCost(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NewMatrix(gpus, cost, nil)
	}
}
