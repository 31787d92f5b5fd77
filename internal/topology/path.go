package topology

import (
	"container/heap"
	"math"
)

// Path is a route through the graph: the visited nodes and the edges between
// them (len(Edges) == len(Nodes)-1). A path from a node to itself has one
// node and no edges.
type Path struct {
	Nodes []NodeID
	Edges []EdgeID
}

// Hops returns the number of edges traversed.
func (p *Path) Hops() int { return len(p.Edges) }

// Valid reports whether the path is non-empty.
func (p *Path) Valid() bool { return len(p.Nodes) > 0 }

// TransferTime returns the time in seconds to push size bytes along the path
// under store-and-forward at each hop's *available* bandwidth: the paper's
// per-hop model T = sum_n (D / B(e_n)) + fixed latencies (Eq. 10, Eq. 15).
func (p *Path) TransferTime(g *Graph, size int64) float64 {
	var t float64
	for _, eid := range p.Edges {
		e := g.Edge(eid)
		bw := e.Available
		if bw <= 0 {
			return math.Inf(1)
		}
		t += float64(size)/bw + e.Latency
	}
	return t
}

// Bottleneck returns the minimum available bandwidth along the path, in
// bytes/second (Eq. 11's min_{e_n in P} B(e_n)). It returns +Inf for an
// empty (self) path.
func (p *Path) Bottleneck(g *Graph) float64 {
	min := math.Inf(1)
	for _, eid := range p.Edges {
		if bw := g.Edge(eid).Available; bw < min {
			min = bw
		}
	}
	return min
}

// EdgeCost computes the routing metric of a single edge for a message of the
// given size: serialization at available bandwidth plus fixed latency. Size
// zero degenerates to pure latency (hop-count-like routing).
type EdgeCost func(e *Edge) float64

// TransferCost returns an EdgeCost for shortest-path routing of size bytes.
// Edges with no available bandwidth are infinitely expensive.
func TransferCost(size int64) EdgeCost {
	return func(e *Edge) float64 {
		if e.Available <= 0 {
			return math.Inf(1)
		}
		return float64(size)/e.Available + e.Latency
	}
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node NodeID
	dist float64
	idx  int
}

type pq []*pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i]; q[i].idx = i; q[j].idx = j }
func (q *pq) Push(x any)        { it := x.(*pqItem); it.idx = len(*q); *q = append(*q, it) }
func (q *pq) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// ShortestPaths holds the single-source Dijkstra result: per-node distance
// and the predecessor edge on the shortest-path tree.
type ShortestPaths struct {
	Source NodeID
	Dist   []float64
	prevE  []EdgeID // predecessor edge, -1 at source/unreachable
	g      *Graph
}

// Dijkstra computes shortest paths from src under the given cost metric.
// Relay restrictions are expressed by the allow predicate: a node may be used
// as an *intermediate* hop only if allow(node) is true (endpoints are always
// allowed). A nil allow permits every node. The paper's routes relay through
// GPUs (NVLink forwarding, Fig. 2b) and switches, so the default permits all.
func (g *Graph) Dijkstra(src NodeID, cost EdgeCost, allow func(NodeID) bool) *ShortestPaths {
	n := g.NumNodes()
	sp := &ShortestPaths{
		Source: src,
		Dist:   make([]float64, n),
		prevE:  make([]EdgeID, n),
		g:      g,
	}
	for i := range sp.Dist {
		sp.Dist[i] = math.Inf(1)
		sp.prevE[i] = -1
	}
	sp.Dist[src] = 0

	items := make([]*pqItem, n)
	q := make(pq, 0, n)
	items[src] = &pqItem{node: src, dist: 0}
	heap.Push(&q, items[src])

	for q.Len() > 0 {
		it := heap.Pop(&q).(*pqItem)
		u := it.node
		if it.dist > sp.Dist[u] {
			continue
		}
		// Relay restriction: only expand through allowed intermediates.
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
			if d := sp.Dist[u] + w; d < sp.Dist[v] {
				sp.Dist[v] = d
				sp.prevE[v] = eid
				if items[v] == nil {
					items[v] = &pqItem{node: v, dist: d}
					heap.Push(&q, items[v])
				} else {
					items[v].dist = d
					if items[v].idx >= 0 && items[v].idx < q.Len() && q[items[v].idx] == items[v] {
						heap.Fix(&q, items[v].idx)
					} else {
						// Item already popped with a stale larger distance:
						// push a fresh entry.
						items[v] = &pqItem{node: v, dist: d}
						heap.Push(&q, items[v])
					}
				}
			}
		}
	}
	return sp
}

// PathTo reconstructs the shortest path from the source to dst. The second
// result is false when dst is unreachable.
func (sp *ShortestPaths) PathTo(dst NodeID) (Path, bool) {
	if math.IsInf(sp.Dist[dst], 1) {
		return Path{}, false
	}
	// Count the hops first, so the path is built in place, back to front,
	// with exactly two allocations.
	hops := 0
	for at := dst; at != sp.Source; at = sp.g.Edge(sp.prevE[at]).Other(at) {
		hops++
	}
	p := Path{Nodes: make([]NodeID, hops+1), Edges: make([]EdgeID, hops)}
	p.Nodes[0] = sp.Source
	for at, i := dst, hops; i > 0; i-- {
		eid := sp.prevE[at]
		p.Nodes[i] = at
		p.Edges[i-1] = eid
		at = sp.g.Edge(eid).Other(at)
	}
	return p, true
}

// Matrix is the planner's offline all-pairs structure: the minimum-latency
// matrix D(i,j) and the shortest-path matrix P(k,a) (paper Alg. 2 lines 2-3),
// restricted to a working set of nodes.
type Matrix struct {
	g     *Graph
	index map[NodeID]int
	nodes []NodeID
	dist  [][]float64
	paths [][]Path
}

// NewMatrix runs Dijkstra from every node in nodes and stores distances and
// paths to every other node in nodes. The cost metric and relay predicate
// match Dijkstra's.
func (g *Graph) NewMatrix(nodes []NodeID, cost EdgeCost, allow func(NodeID) bool) *Matrix {
	m := &Matrix{
		g:     g,
		index: make(map[NodeID]int, len(nodes)),
		nodes: append([]NodeID(nil), nodes...),
		dist:  make([][]float64, len(nodes)),
		paths: make([][]Path, len(nodes)),
	}
	for i, n := range m.nodes {
		m.index[n] = i
	}
	for i, src := range m.nodes {
		sp := g.Dijkstra(src, cost, allow)
		m.dist[i] = make([]float64, len(m.nodes))
		m.paths[i] = make([]Path, len(m.nodes))
		for j, dst := range m.nodes {
			m.dist[i][j] = sp.Dist[dst]
			if p, ok := sp.PathTo(dst); ok {
				m.paths[i][j] = p
			}
		}
	}
	return m
}

// Nodes returns the node working set (matrix-owned slice).
func (m *Matrix) Nodes() []NodeID { return m.nodes }

// Contains reports whether n is in the working set.
func (m *Matrix) Contains(n NodeID) bool { _, ok := m.index[n]; return ok }

// Dist returns D(a,b): +Inf when unreachable or when either node is outside
// the working set.
func (m *Matrix) Dist(a, b NodeID) float64 {
	i, ok1 := m.index[a]
	j, ok2 := m.index[b]
	if !ok1 || !ok2 {
		return math.Inf(1)
	}
	return m.dist[i][j]
}

// PathBetween returns P(a,b); the second result is false when unreachable or
// out of the working set.
func (m *Matrix) PathBetween(a, b NodeID) (Path, bool) {
	i, ok1 := m.index[a]
	j, ok2 := m.index[b]
	if !ok1 || !ok2 {
		return Path{}, false
	}
	p := m.paths[i][j]
	return p, p.Valid()
}
