package topology

import (
	"fmt"
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

// nodeHeap is Dijkstra's priority queue: a binary min-heap of node ids keyed
// by their tentative distance. pos[v] is v's heap slot, valid only while
// q[pos[v]] == v (v queued). Its push, pop and fix run container/heap's
// exact sift sequence, so nodes pop in the same order, ties included, as
// from a container/heap of per-node items, without allocating one per node.
type nodeHeap struct {
	q    []NodeID
	pos  []int
	dist []float64
}

func (h *nodeHeap) less(i, j int) bool { return h.dist[h.q[i]] < h.dist[h.q[j]] }

func (h *nodeHeap) swap(i, j int) {
	h.q[i], h.q[j] = h.q[j], h.q[i]
	h.pos[h.q[i]] = i
	h.pos[h.q[j]] = j
}

func (h *nodeHeap) push(v NodeID) {
	h.pos[v] = len(h.q)
	h.q = append(h.q, v)
	h.up(len(h.q) - 1)
}

func (h *nodeHeap) pop() NodeID {
	n := len(h.q) - 1
	h.swap(0, n)
	h.down(0, n)
	v := h.q[n]
	h.q = h.q[:n]
	return v
}

func (h *nodeHeap) fix(i int) {
	if !h.down(i, len(h.q)) {
		h.up(i)
	}
}

func (h *nodeHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h *nodeHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
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

	h := &nodeHeap{q: make([]NodeID, 0, n), pos: make([]int, n), dist: sp.Dist}
	h.push(src)
	for len(h.q) > 0 {
		u := h.pop()
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
				if i := h.pos[v]; i < len(h.q) && h.q[i] == v {
					h.fix(i)
				} else {
					h.push(v) // first reach, or already popped
				}
			}
		}
	}
	return sp
}

// PathTo reconstructs the shortest path from the source to dst. The second
// result is false when dst is unreachable.
func (sp *ShortestPaths) PathTo(dst NodeID) (Path, bool) {
	nodes, edges, ok := sp.AppendPathTo(nil, nil, dst)
	if !ok {
		return Path{}, false
	}
	return Path{Nodes: nodes, Edges: edges}, true
}

// AppendPathTo appends the shortest path from the source to dst, in travel
// order, to nodes and edges and returns the extended slices: PathTo into
// caller-owned buffers, allocating nothing when they have room. ok is false,
// and the slices come back unchanged, when dst is unreachable.
func (sp *ShortestPaths) AppendPathTo(nodes []NodeID, edges []EdgeID, dst NodeID) ([]NodeID, []EdgeID, bool) {
	if math.IsInf(sp.Dist[dst], 1) {
		return nodes, edges, false
	}
	// Count the hops first, so the path is written in place, back to front.
	hops := 0
	for at := dst; at != sp.Source; at = sp.g.Edge(sp.prevE[at]).Other(at) {
		hops++
	}
	n0, e0 := len(nodes), len(edges)
	nodes, edges = extend(nodes, hops+1), extend(edges, hops)
	nodes[n0] = sp.Source
	for at, i := dst, hops; i > 0; i-- {
		eid := sp.prevE[at]
		nodes[n0+i] = at
		edges[e0+i-1] = eid
		at = sp.g.Edge(eid).Other(at)
	}
	return nodes, edges, true
}

// extend returns s lengthened by n, reallocating to exactly the needed
// capacity when s has no room.
func extend[T any](s []T, n int) []T {
	if cap(s)-len(s) < n {
		t := make([]T, len(s), len(s)+n)
		copy(t, s)
		s = t
	}
	return s[:len(s)+n]
}

// Trees caches the shortest-path trees of size-byte transfers (TransferCost
// routing under one relay predicate) from the sources of a fixed universe
// of nodes. A source's tree is built on the source's first Dist or
// PathBetween, and P(a,b) on its first request, memoized on a's tree. Every
// Matrix built from one Trees shares them, so working sets that are subsets
// of one universe route each source once: the planner keeps one Trees per
// role, whose pool plus the switches holds every candidate's working set.
// The trees reflect the graph's available bandwidths when each was built.
// Trees is not safe for concurrent use.
type Trees struct {
	g     *Graph
	cost  EdgeCost
	allow func(NodeID) bool
	size  int64
	nodes []NodeID
	slot  []int32 // NodeID -> index in nodes, -1 outside the universe
	trees []tree  // per index in nodes
}

// tree is one source's shortest-path tree and its path memo: at[j] is one
// plus the index in paths of P(source, nodes[j]), 0 until first requested.
// An unreachable destination is memoized as an invalid path.
type tree struct {
	sp    *ShortestPaths
	at    []int32
	paths []Path
}

// NewTrees returns an empty tree cache over the universe nodes for size-byte
// transfers. The relay predicate matches Dijkstra's.
func (g *Graph) NewTrees(nodes []NodeID, size int64, allow func(NodeID) bool) *Trees {
	t := &Trees{
		g:     g,
		cost:  TransferCost(size),
		allow: allow,
		size:  size,
		nodes: append([]NodeID(nil), nodes...),
		slot:  make([]int32, g.NumNodes()),
		trees: make([]tree, len(nodes)),
	}
	for i := range t.slot {
		t.slot[i] = -1
	}
	for i, n := range t.nodes {
		t.slot[n] = int32(i)
	}
	return t
}

// tree returns the tree from nodes[i], running Dijkstra on first use.
func (t *Trees) tree(i int32) *ShortestPaths {
	if sp := t.trees[i].sp; sp != nil {
		return sp
	}
	sp := t.g.Dijkstra(t.nodes[i], t.cost, t.allow)
	t.trees[i].sp = sp
	return sp
}

// path returns P(nodes[i], nodes[j]), building it on first request.
func (t *Trees) path(i, j int32) Path {
	sp := t.tree(i)
	tr := &t.trees[i]
	if tr.at == nil {
		tr.at = make([]int32, len(t.nodes))
	}
	if k := tr.at[j]; k > 0 {
		return tr.paths[k-1]
	}
	p, _ := sp.PathTo(t.nodes[j])
	tr.paths = append(tr.paths, p)
	tr.at[j] = int32(len(tr.paths))
	return p
}

// Matrix restricts the trees to a working set of nodes, a subset of the
// universe; it panics on a node outside the universe.
func (t *Trees) Matrix(nodes []NodeID) *Matrix {
	m := &Matrix{
		t:     t,
		nodes: append([]NodeID(nil), nodes...),
		slot:  make([]int32, len(t.slot)),
	}
	for i := range m.slot {
		m.slot[i] = -1
	}
	for _, n := range m.nodes {
		i := t.slot[n]
		if i < 0 {
			panic(fmt.Sprintf("topology: matrix node %d outside the tree universe", n))
		}
		m.slot[n] = i
	}
	return m
}

// Matrix is the planner's offline all-pairs structure: the minimum-latency
// matrix D(i,j) and the shortest-path matrix P(k,a) (paper Alg. 2 lines 2-3)
// of size-byte transfers, restricted to a working set of nodes. It reads
// both from its Trees: D(a,b) from a's tree distances, P(a,b) from the path
// memoized on a's tree, so pairs the planner never asks for cost nothing.
// Because Dijkstra sums each edge's size/B(e) + latency in travel order, as
// Path.TransferTime does, D(a,b) equals P(a,b).TransferTime(g, size) bit
// for bit while the graph's bandwidths are unchanged. A Matrix is not safe
// for concurrent use.
type Matrix struct {
	t     *Trees
	nodes []NodeID
	slot  []int32 // NodeID -> the Trees' index of a working-set node, -1 otherwise
}

// NewMatrix returns the matrix of size-byte transfers over nodes, on trees
// of its own. The relay predicate matches Dijkstra's.
func (g *Graph) NewMatrix(nodes []NodeID, size int64, allow func(NodeID) bool) *Matrix {
	return g.NewTrees(nodes, size, allow).Matrix(nodes)
}

// Nodes returns the node working set (matrix-owned slice).
func (m *Matrix) Nodes() []NodeID { return m.nodes }

// Size returns the transfer size, in bytes, the matrix routes for.
func (m *Matrix) Size() int64 { return m.t.size }

// index returns n's Trees index, or -1 when n is outside the working set.
func (m *Matrix) index(n NodeID) int32 {
	if uint(n) >= uint(len(m.slot)) {
		return -1
	}
	return m.slot[n]
}

// Contains reports whether n is in the working set.
func (m *Matrix) Contains(n NodeID) bool { return m.index(n) >= 0 }

// Dist returns D(a,b): +Inf when unreachable or when either node is outside
// the working set.
func (m *Matrix) Dist(a, b NodeID) float64 {
	i, j := m.index(a), m.index(b)
	if i < 0 || j < 0 {
		return math.Inf(1)
	}
	return m.t.tree(i).Dist[b]
}

// PathBetween returns P(a,b); the second result is false when unreachable or
// out of the working set. Returned paths are shared between calls; callers
// must not modify them.
func (m *Matrix) PathBetween(a, b NodeID) (Path, bool) {
	i, j := m.index(a), m.index(b)
	if i < 0 || j < 0 {
		return Path{}, false
	}
	p := m.t.path(i, j)
	return p, p.Valid()
}
