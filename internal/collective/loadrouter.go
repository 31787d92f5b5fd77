package collective

import (
	"slices"
	"sort"

	"heroserve/internal/netsim"
	"heroserve/internal/topology"
)

// LoadAwareRouter implements the online scheduler's *path* half for
// point-to-point transfers (§III-D: the policy "dynamically adjusts the
// communication strategy and selects the most favorable transmission
// routes"). For each (source, destination) pair it precomputes a small set
// of candidate fabric paths — the static shortest path plus detours via
// each reachable switch — and at call time picks the candidate whose most
// utilized link is coolest, using live utilization from the flow simulator.
// KV-cache migrations are the big winner: they are long point-to-point
// flows that the static router would keep hammering onto one hot uplink.
type LoadAwareRouter struct {
	g      *topology.Graph
	static *StaticRouter
	net    *netsim.Network

	// maxCandidates bounds the alternatives kept per pair.
	maxCandidates int
	cache         map[pairKey][]topology.Path

	// Detour-ranking scratch, reused across cache misses: the ranked list,
	// the route walk buffers, and loop-check marks (node -> epoch).
	rank  detourRank
	nodes []topology.NodeID
	edges []topology.EdgeID
	mark  []uint64
	epoch uint64
}

type pairKey struct {
	a, b  topology.NodeID
	class int
}

// NewLoadAwareRouter returns a router over g. Bind must be called with the
// live network before the first Route; until then it behaves statically.
func NewLoadAwareRouter(g *topology.Graph, maxCandidates int) *LoadAwareRouter {
	if maxCandidates < 1 {
		maxCandidates = 3
	}
	return &LoadAwareRouter{
		g:             g,
		static:        NewStaticRouter(g),
		maxCandidates: maxCandidates,
		cache:         make(map[pairKey][]topology.Path),
	}
}

// Bind attaches the live flow simulator whose utilization drives choices.
func (r *LoadAwareRouter) Bind(net *netsim.Network) { r.net = net }

// candidates returns the cached path alternatives for a pair: the static
// path, then detours a -> switch -> b in ascending transfer time, deduped by
// edge sequence, up to maxCandidates. Detours are ranked without being
// built (rankDetours); only the ones taken become Paths.
func (r *LoadAwareRouter) candidates(a, b topology.NodeID, size int64) []topology.Path {
	class, _ := sizeClass(size)
	key := pairKey{a: a, b: b, class: class}
	if ps, ok := r.cache[key]; ok {
		return ps
	}
	var out []topology.Path
	add := func(p topology.Path) {
		for _, q := range out {
			if slices.Equal(q.Edges, p.Edges) {
				return
			}
		}
		out = append(out, p)
	}
	if direct, ok := r.static.Route(a, b, size); ok {
		add(direct)
	}
	r.rankDetours(a, b, size)
	for _, sw := range r.rank.sw {
		if len(out) >= r.maxCandidates {
			break
		}
		p1, _ := r.static.Route(a, sw, size)
		p2, _ := r.static.Route(sw, b, size)
		joined, _ := joinPaths(p1, p2)
		add(joined)
	}
	r.cache[key] = out
	return out
}

// detourRank is the ranked detour list of one candidates call: the
// switches whose joined route a -> sw -> b is loop-free, with its
// Path.TransferTime, in parallel slices reused across calls.
type detourRank struct {
	sw   []topology.NodeID
	cost []float64
}

func (d *detourRank) Len() int           { return len(d.sw) }
func (d *detourRank) Less(i, j int) bool { return d.cost[i] < d.cost[j] }
func (d *detourRank) Swap(i, j int) {
	d.sw[i], d.sw[j] = d.sw[j], d.sw[i]
	d.cost[i], d.cost[j] = d.cost[j], d.cost[i]
}

// rankDetours fills r.rank with the loop-free detours from a to b via every
// switch, cheapest first. It walks the static router's cached trees into
// reusable buffers instead of building Paths: the two legs land back to back
// in r.nodes/r.edges, so the edge buffer is the joined route in travel order
// and its cost is the same float sum joinPaths + TransferTime would give.
// The loop check is joinPaths' (no node twice) over epoch marks. sort.Sort
// on a router-owned value allocates nothing, unlike sort.Slice, and runs the
// same pdqsort, so equal-cost detours keep sort.Slice's order. Warm, the
// ranking allocates nothing.
func (r *LoadAwareRouter) rankDetours(a, b topology.NodeID, size int64) {
	class, rep := sizeClass(size)
	if n := r.g.NumNodes(); len(r.mark) < n {
		r.mark = make([]uint64, n)
	}
	r.rank.sw, r.rank.cost = r.rank.sw[:0], r.rank.cost[:0]
	from := r.static.tree(a, class, rep)
	for _, sw := range r.g.Switches() {
		nodes, edges, ok := from.AppendPathTo(r.nodes[:0], r.edges[:0], sw)
		if !ok {
			continue
		}
		leg := len(nodes)
		nodes, edges, ok = r.static.tree(sw, class, rep).AppendPathTo(nodes, edges, b)
		r.nodes, r.edges = nodes, edges // keep grown capacity
		if !ok || !r.loopFree(nodes, leg) {
			continue
		}
		joined := topology.Path{Edges: edges}
		r.rank.sw = append(r.rank.sw, sw)
		r.rank.cost = append(r.rank.cost, joined.TransferTime(r.g, size))
	}
	sort.Sort(&r.rank)
}

// loopFree reports whether the route nodes[:leg] ++ nodes[leg+1:] (the
// second leg's first node repeats the first leg's last) visits no node twice.
func (r *LoadAwareRouter) loopFree(nodes []topology.NodeID, leg int) bool {
	r.epoch++
	for i, n := range nodes {
		if i == leg {
			continue
		}
		if r.mark[n] == r.epoch {
			return false
		}
		r.mark[n] = r.epoch
	}
	return true
}

// Route implements Router: the candidate with the coolest hottest link wins;
// ties break to the earlier (shorter/cheaper) candidate.
func (r *LoadAwareRouter) Route(a, b topology.NodeID, size int64) (topology.Path, bool) {
	cands := r.candidates(a, b, size)
	if len(cands) == 0 {
		return topology.Path{}, false
	}
	if r.net == nil || len(cands) == 1 {
		return cands[0], true
	}
	best := 0
	bestHeat := pathHeat(r.net, cands[0])
	for i := 1; i < len(cands); i++ {
		if h := pathHeat(r.net, cands[i]); h < bestHeat-1e-9 {
			best, bestHeat = i, h
		}
	}
	return cands[best], true
}

// pathHeat is the maximum live utilization along the path.
func pathHeat(net *netsim.Network, p topology.Path) float64 {
	var worst float64
	for _, eid := range p.Edges {
		if u := net.EdgeUtilization(eid); u > worst {
			worst = u
		}
	}
	return worst
}

// joinPaths concatenates two paths sharing a middle node, rejecting joins
// that revisit a node (loops waste bandwidth).
func joinPaths(p1, p2 topology.Path) (topology.Path, bool) {
	if !p1.Valid() || !p2.Valid() {
		return topology.Path{}, false
	}
	if p1.Nodes[len(p1.Nodes)-1] != p2.Nodes[0] {
		return topology.Path{}, false
	}
	seen := map[topology.NodeID]bool{}
	for _, n := range p1.Nodes {
		if seen[n] {
			return topology.Path{}, false
		}
		seen[n] = true
	}
	for _, n := range p2.Nodes[1:] {
		if seen[n] {
			return topology.Path{}, false
		}
		seen[n] = true
	}
	out := topology.Path{
		Nodes: append(append([]topology.NodeID{}, p1.Nodes...), p2.Nodes[1:]...),
		Edges: append(append([]topology.EdgeID{}, p1.Edges...), p2.Edges...),
	}
	return out, true
}

var _ Router = (*LoadAwareRouter)(nil)
