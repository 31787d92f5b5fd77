package topology

import (
	"container/heap"
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
	m := g.NewMatrix(gpus, 1<<20, nil)
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
		m := g.NewMatrix(ids, size, nil)
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := g.NewMatrix(gpus, 1<<20, nil)
		for _, a := range gpus {
			m.Dist(a, a) // builds a's tree
		}
	}
}

// refItem and refQueue are the original container/heap queue of Dijkstra,
// kept as the oracle for the allocation-free nodeHeap.
type refItem struct {
	node NodeID
	dist float64
	idx  int
}

type refQueue []*refItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i]; q[i].idx = i; q[j].idx = j }
func (q *refQueue) Push(x any)        { it := x.(*refItem); it.idx = len(*q); *q = append(*q, it) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// dijkstraRef is the original Dijkstra, one heap item per reached node.
func dijkstraRef(g *Graph, src NodeID, cost EdgeCost, allow func(NodeID) bool) ([]float64, []EdgeID) {
	n := g.NumNodes()
	dist, prevE := make([]float64, n), make([]EdgeID, n)
	for i := range dist {
		dist[i], prevE[i] = math.Inf(1), -1
	}
	dist[src] = 0
	items := make([]*refItem, n)
	q := refQueue{}
	items[src] = &refItem{node: src}
	heap.Push(&q, items[src])
	for q.Len() > 0 {
		it := heap.Pop(&q).(*refItem)
		u := it.node
		if it.dist > dist[u] {
			continue
		}
		if u != src && allow != nil && !allow(u) {
			continue
		}
		for _, eid := range g.Incident(u) {
			e := g.Edge(eid)
			w := cost(e)
			if math.IsInf(w, 1) {
				continue
			}
			v := e.Other(u)
			if d := dist[u] + w; d < dist[v] {
				dist[v], prevE[v] = d, eid
				if items[v] != nil && items[v].idx < q.Len() && q[items[v].idx] == items[v] {
					items[v].dist = d
					heap.Fix(&q, items[v].idx)
				} else {
					items[v] = &refItem{node: v, dist: d}
					heap.Push(&q, items[v])
				}
			}
		}
	}
	return dist, prevE
}

// TestDijkstraMatchesContainerHeap checks the nodeHeap Dijkstra against the
// container/heap original from every source: bit-identical distances and the
// same predecessor edge everywhere, so every path is the same. Latency-only
// routing (size 0) on the built topologies is tie-heavy, which is where a
// different pop order would pick different equal-cost predecessors.
func TestDijkstraMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	graphs := []*Graph{Testbed(), Pod2Tracks(12), Pod8Tracks(24)}
	for trial := 0; trial < 10; trial++ {
		g := NewGraph()
		n := 5 + rng.Intn(30)
		for i := 0; i < n; i++ {
			g.AddNode(Node{Kind: KindGPU, Server: i})
		}
		for k := 0; k < 3*n; k++ {
			a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if a != b {
				// Few distinct capacities and latencies: many equal-cost routes.
				g.AddEdge(a, b, LinkEthernet, float64(1+rng.Intn(2))*1e9, float64(rng.Intn(2))*1e-6)
			}
		}
		graphs = append(graphs, g)
	}
	for gi, g := range graphs {
		switchesOnly := func(n NodeID) bool { return g.Node(n).Kind.IsSwitch() }
		for _, size := range []int64{0, 1 << 20} {
			for _, allow := range []func(NodeID) bool{nil, switchesOnly} {
				cost := TransferCost(size)
				for src := 0; src < g.NumNodes(); src++ {
					sp := g.Dijkstra(NodeID(src), cost, allow)
					dist, prevE := dijkstraRef(g, NodeID(src), cost, allow)
					for v := range dist {
						if math.Float64bits(sp.Dist[v]) != math.Float64bits(dist[v]) || sp.prevE[v] != prevE[v] {
							t.Fatalf("graph %d size %d src %d node %d: dist %g via %d, want %g via %d",
								gi, size, src, v, sp.Dist[v], sp.prevE[v], dist[v], prevE[v])
						}
					}
				}
			}
		}
	}
}

// TestMatrixDistMatchesPathTransferTime: D(a,b) is P(a,b)'s transfer time
// bit for bit, for the matrix's own size, on every (GPU, switch) and
// (GPU, GPU) pair of a fabric-routed working set, and D is +Inf exactly
// where P fails. The planner prices aggregation switches from D on the
// strength of this. One testbed GPU has its links drained, so some pairs
// are unreachable.
func TestMatrixDistMatchesPathTransferTime(t *testing.T) {
	drained := Testbed()
	for _, eid := range drained.Incident(drained.GPUs()[5]) {
		drained.Edge(eid).Available = 0
	}
	for name, g := range map[string]*Graph{
		"testbed": Testbed(), "testbed-drained": drained,
		"pod2-12": Pod2Tracks(12), "pod8-24": Pod8Tracks(24),
	} {
		fabric := func(n NodeID) bool { return g.Node(n).Kind.IsSwitch() }
		working := append(append([]NodeID{}, g.GPUs()...), g.Switches()...)
		for _, size := range []int64{0, 1 << 20, 12_345_679} {
			m := g.NewMatrix(working, size, fabric)
			unreachable := 0
			for _, a := range g.GPUs() {
				for _, b := range working {
					d := m.Dist(a, b)
					p, ok := m.PathBetween(a, b)
					if ok == math.IsInf(d, 1) {
						t.Fatalf("%s size %d: %d->%d D=%g but path found=%v", name, size, a, b, d, ok)
					}
					if !ok {
						unreachable++
						continue
					}
					if tt := p.TransferTime(g, size); math.Float64bits(d) != math.Float64bits(tt) {
						t.Fatalf("%s size %d: %d->%d D=%v, path transfer time %v", name, size, a, b, d, tt)
					}
				}
			}
			if (unreachable > 0) != (name == "testbed-drained") {
				t.Errorf("%s size %d: %d unreachable pairs", name, size, unreachable)
			}
		}
	}
}
