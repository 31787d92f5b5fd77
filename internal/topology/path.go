package topology

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Path is a route through the graph: the visited nodes and the edges between
// them (len(Edges) == len(Nodes)-1). A path from a node to itself has one
// node and no edges.
type Path struct {
	Nodes []NodeID
	Edges []EdgeID
}

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

// nodeHeap is Dijkstra's priority queue: a binary min-heap of node ids, each
// stored with its tentative distance. pos[v] is v's heap slot, valid only
// while q[pos[v]] holds v (v queued). Its push, pop and fix run
// container/heap's exact sift sequence, so nodes pop in the same order, ties
// included, as from a container/heap of per-node items, without allocating
// one per node.
type nodeHeap struct {
	q   []heapItem
	pos []int32
}

// heapItem is a queued node and its distance, kept beside it so the sifts
// read contiguous memory.
type heapItem struct {
	dist float64
	node int32
}

func (h *nodeHeap) less(i, j int) bool { return h.q[i].dist < h.q[j].dist }

func (h *nodeHeap) swap(i, j int) {
	h.q[i], h.q[j] = h.q[j], h.q[i]
	h.pos[h.q[i].node] = int32(i)
	h.pos[h.q[j].node] = int32(j)
}

// slot returns v's heap slot, and false when v is not queued.
func (h *nodeHeap) slot(v NodeID) (int, bool) {
	i := int(h.pos[v])
	return i, i < len(h.q) && h.q[i].node == int32(v)
}

func (h *nodeHeap) push(v NodeID, dist float64) {
	h.pos[v] = int32(len(h.q))
	h.q = append(h.q, heapItem{dist, int32(v)})
	h.up(len(h.q) - 1)
}

func (h *nodeHeap) pop() NodeID {
	n := len(h.q) - 1
	h.swap(0, n)
	h.down(0, n)
	v := h.q[n].node
	h.q = h.q[:n]
	return NodeID(v)
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
// and the predecessor on the shortest-path tree.
type ShortestPaths struct {
	Source NodeID
	Dist   []float64
	prev   []pred // per node, -1s at the source and where unreachable
	g      *Graph
}

// pred is a node's predecessor on a shortest-path tree: the edge it is
// reached by and that edge's other end.
type pred struct {
	edge, node int32
}

// Routing is one routing problem, an edge cost and a relay predicate,
// evaluated once for Dijkstra runs from any number of sources: node u's
// usable incident edges are arcs[start[u]:start[u+1]], in Incident order,
// each with its far end and its cost, the edges of infinite cost left out,
// and relay[u] reports whether u may be an intermediate hop. Dijkstra reads
// these flat arrays instead of the edges and the two callbacks, and reuses
// one heap. The costs are the edges' when NewRouting ran. A Routing is not
// safe for concurrent use.
type Routing struct {
	g     *Graph
	start []int32
	arcs  []arc
	relay []bool
	heap  nodeHeap
}

type arc struct {
	to   int32
	eid  int32
	cost float64
}

// NewRouting evaluates cost on every edge and allow on every node. Relay
// restrictions are expressed by the allow predicate: a node may be used as an
// *intermediate* hop only if allow(node) is true (endpoints are always
// allowed). A nil allow permits every node. The paper's routes relay through
// GPUs (NVLink forwarding, Fig. 2b) and switches, so the default permits all.
func (g *Graph) NewRouting(cost EdgeCost, allow func(NodeID) bool) *Routing {
	n := g.NumNodes()
	r := &Routing{
		g:     g,
		start: make([]int32, n+1),
		arcs:  make([]arc, 0, 2*g.NumEdges()),
		relay: make([]bool, n),
	}
	for u := 0; u < n; u++ {
		r.start[u] = int32(len(r.arcs))
		r.relay[u] = allow == nil || allow(NodeID(u))
		for _, eid := range g.adj[u] {
			e := g.Edge(eid)
			if w := cost(e); !math.IsInf(w, 1) {
				r.arcs = append(r.arcs, arc{to: int32(e.Other(NodeID(u))), eid: int32(eid), cost: w})
			}
		}
	}
	r.start[n] = int32(len(r.arcs))
	return r
}

// From runs Dijkstra from src.
func (r *Routing) From(src NodeID) *ShortestPaths {
	n := r.g.NumNodes()
	sp := &ShortestPaths{
		Source: src,
		Dist:   make([]float64, n),
		prev:   make([]pred, n),
		g:      r.g,
	}
	for i := range sp.Dist {
		sp.Dist[i] = math.Inf(1)
		sp.prev[i] = pred{-1, -1}
	}
	sp.Dist[src] = 0

	// pos needs no reset: a stale slot is never both in range and holding
	// its node while the queue starts empty.
	h := &r.heap
	if len(h.pos) < n {
		h.q, h.pos = make([]heapItem, 0, n), make([]int32, n)
	}
	h.q = h.q[:0]
	h.push(src, 0)
	for len(h.q) > 0 {
		u := h.pop()
		// Relay restriction: only expand through allowed intermediates.
		if u != src && !r.relay[u] {
			continue
		}
		du := sp.Dist[u]
		for _, arc := range r.arcs[r.start[u]:r.start[u+1]] {
			v := NodeID(arc.to)
			if d := du + arc.cost; d < sp.Dist[v] {
				sp.Dist[v] = d
				sp.prev[v] = pred{arc.eid, int32(u)}
				if i, queued := h.slot(v); queued {
					h.q[i].dist = d
					h.fix(i)
				} else {
					h.push(v, d) // first reach, or already popped
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
	n0, e0 := len(nodes), len(edges)
	edges, ok := sp.AppendEdgesTo(edges, dst)
	if !ok {
		return nodes, edges, false
	}
	nodes = extend(nodes, len(edges)-e0+1)
	for at, i := dst, len(nodes)-1; i >= n0; i-- {
		nodes[i] = at
		at = NodeID(sp.prev[at].node)
	}
	return nodes, edges, true
}

// AppendEdgesTo appends the edges of the shortest path from the source to
// dst, in travel order, to edges and returns the extended slice, allocating
// nothing when it has room. ok is false, and the slice comes back
// unchanged, when dst is unreachable.
func (sp *ShortestPaths) AppendEdgesTo(edges []EdgeID, dst NodeID) ([]EdgeID, bool) {
	if math.IsInf(sp.Dist[dst], 1) {
		return edges, false
	}
	// Count the hops first, so the path is written in place, back to front.
	hops := 0
	for at := dst; at != sp.Source; at = NodeID(sp.prev[at].node) {
		hops++
	}
	e0 := len(edges)
	edges = extend(edges, hops)
	for at, i := dst, len(edges)-1; i >= e0; i-- {
		p := sp.prev[at]
		edges[i] = EdgeID(p.edge)
		at = NodeID(p.node)
	}
	return edges, true
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
// of nodes. A source's tree is built on the first request that reads it.
// Every Matrix built from one Trees shares them, so working sets that are subsets
// of one universe route each source once: the planner keeps one Trees per
// role, whose pool plus the switches holds every candidate's working set.
// Each edge's TransferCost is computed once, when the Trees is created, so
// the trees reflect the graph's available bandwidths at that time.
// Trees is not safe for concurrent use.
type Trees struct {
	g     *Graph
	route *Routing // TransferCost(size) under the relay predicate
	size  int64
	nodes []NodeID
	slot  []int32 // NodeID -> index in nodes, -1 outside the universe
	trees []tree  // per index in nodes
}

// tree is one source's shortest-path tree, and its SwitchDists and
// SwitchesByDist, each nil until first requested.
type tree struct {
	sp         *ShortestPaths
	switchDist []float64
	switches   []int32
}

// NewTrees returns an empty tree cache over the universe nodes for size-byte
// transfers. The relay predicate matches NewRouting's.
func (g *Graph) NewTrees(nodes []NodeID, size int64, allow func(NodeID) bool) *Trees {
	t := &Trees{
		g:     g,
		route: g.NewRouting(TransferCost(size), allow),
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
	sp := t.route.From(t.nodes[i])
	t.trees[i].sp = sp
	return sp
}

// switchDist returns the distances from nodes[i] to the graph's switches,
// in Switches() order, computing them on first request.
func (t *Trees) switchDist(i int32) []float64 {
	tr := &t.trees[i]
	if tr.switchDist == nil {
		dist := t.tree(i).Dist
		tr.switchDist = make([]float64, len(t.g.Switches()))
		for k, s := range t.g.Switches() {
			tr.switchDist[k] = dist[s]
		}
	}
	return tr.switchDist
}

// switchOrder returns the indices into g.Switches() sorted by ascending
// distance from nodes[i], ties in index order, computing them on first
// request.
func (t *Trees) switchOrder(i int32) []int32 {
	tr := &t.trees[i]
	if tr.switches == nil {
		dist := t.switchDist(i)
		order := make([]int32, len(dist))
		for k := range order {
			order[k] = int32(k)
		}
		slices.SortFunc(order, func(a, b int32) int {
			if c := cmp.Compare(dist[a], dist[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		tr.switches = order
	}
	return tr.switches
}

// Matrix restricts the trees to a working set of nodes, a subset of the
// universe; it panics on a node outside the universe.
func (t *Trees) Matrix(nodes []NodeID) *Matrix {
	m := &Matrix{
		t:    t,
		slot: make([]int32, len(t.slot)),
	}
	for i := range m.slot {
		m.slot[i] = -1
	}
	for _, n := range nodes {
		i := t.slot[n]
		if i < 0 {
			panic(fmt.Sprintf("topology: matrix node %d outside the tree universe", n))
		}
		m.slot[n] = i
	}
	m.allSwitches = true
	for _, s := range t.g.Switches() {
		m.allSwitches = m.allSwitches && m.slot[s] >= 0
	}
	return m
}

// Matrix is the planner's offline all-pairs structure: the minimum-latency
// matrix D(i,j) and the shortest-path matrix P(k,a) (paper Alg. 2 lines 2-3)
// of size-byte transfers, restricted to a working set of nodes. It reads
// both from a's tree in its Trees, so pairs the planner never asks for cost
// nothing.
// Because Dijkstra sums each edge's size/B(e) + latency in travel order, as
// Path.TransferTime does, D(a,b) equals P(a,b).TransferTime(g, size) bit
// for bit while the graph's bandwidths are unchanged. A Matrix is not safe
// for concurrent use.
type Matrix struct {
	t           *Trees
	slot        []int32 // NodeID -> the Trees' index of a working-set node, -1 otherwise
	allSwitches bool    // every switch is in the working set
}

// Size returns the transfer size, in bytes, the matrix routes for.
func (m *Matrix) Size() int64 { return m.t.size }

// index returns n's Trees index, or -1 when n is outside the working set.
func (m *Matrix) index(n NodeID) int32 {
	if uint(n) >= uint(len(m.slot)) {
		return -1
	}
	return m.slot[n]
}

// Dist returns D(a,b): +Inf when unreachable or when either node is outside
// the working set.
func (m *Matrix) Dist(a, b NodeID) float64 {
	i, j := m.index(a), m.index(b)
	if i < 0 || j < 0 {
		return math.Inf(1)
	}
	return m.t.tree(i).Dist[b]
}

// Row returns a's row of D, indexed by NodeID: row[b] is D(a,b) for every b
// in the working set; the other entries are distances on a's tree, not
// +Inf. It is nil when a is outside the working set. Callers must not
// modify it.
func (m *Matrix) Row(a NodeID) []float64 {
	i := m.index(a)
	if i < 0 {
		return nil
	}
	return m.t.tree(i).Dist
}

// AppendEdges appends the edges of P(a,b), in travel order, to edges and
// returns the extended slice: PathBetween's route, walked up a's tree into
// a caller-owned buffer. ok is false, and the slice
// comes back unchanged, when the pair is unreachable or out of the working
// set.
func (m *Matrix) AppendEdges(edges []EdgeID, a, b NodeID) ([]EdgeID, bool) {
	i, j := m.index(a), m.index(b)
	if i < 0 || j < 0 {
		return edges, false
	}
	return m.t.tree(i).AppendEdgesTo(edges, b)
}

// SwitchDists returns D(a, s) for every switch s, indexed like the graph's
// Switches(), +Inf where a cannot reach s: a's row restricted to the
// switches, in one short array. It is computed once per source and shared
// by every Matrix over the same Trees; callers must not modify it. It is
// nil when a is outside the working set or the working set lacks a switch.
func (m *Matrix) SwitchDists(a NodeID) []float64 {
	i := m.index(a)
	if i < 0 || !m.allSwitches {
		return nil
	}
	return m.t.switchDist(i)
}

// SwitchesByDist returns the indices into the graph's Switches() in
// ascending SwitchDists(a) order, ties in index order, the switches a
// cannot reach last. It is computed once per source and shared like
// SwitchDists, and nil when SwitchDists is.
func (m *Matrix) SwitchesByDist(a NodeID) []int32 {
	i := m.index(a)
	if i < 0 || !m.allSwitches {
		return nil
	}
	return m.t.switchOrder(i)
}

// PathBetween returns P(a,b), built afresh from a's tree; the second result
// is false when unreachable or out of the working set.
func (m *Matrix) PathBetween(a, b NodeID) (Path, bool) {
	i, j := m.index(a), m.index(b)
	if i < 0 || j < 0 {
		return Path{}, false
	}
	return m.t.tree(i).PathTo(b)
}
