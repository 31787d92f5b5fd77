// Package collective implements the communication schemes the paper
// schedules between: ring all-reduce (Eq. 11), Ethernet in-network
// aggregation in SwitchML-style synchronous and ATP-style asynchronous
// variants (Eq. 8–10), and HeroServe's heterogeneous INA that pre-reduces
// over NVLink inside each server before aggregating across servers.
//
// Each scheme exists in two forms:
//
//   - analytic estimators over the offline path matrix, used by the planner
//     (Alg. 2's compute_ina_latency / compute_ring_latency), and
//   - event-driven executions over the flow-level network simulator and the
//     switch data plane, used by the serving simulator. A forward pass's S
//     sequential synchronization steps are folded into a single flow round
//     carrying the total volume (the standard flow-level approximation),
//     with per-step fixed latencies accounted separately.
package collective

import (
	"sort"

	"heroserve/internal/topology"
)

// Router chooses the transmission path for a point-to-point transfer. The
// default StaticRouter uses capacity-weighted shortest paths; the online
// scheduler substitutes load-aware choices (§III-D).
type Router interface {
	// Route returns a path from a to b suitable for size bytes. ok is false
	// when no path exists.
	Route(a, b topology.NodeID, size int64) (topology.Path, bool)
}

// FabricAllow returns the relay predicate of ordinary RDMA routing: flows
// traverse switches only, never bounce through other GPUs. NVLink
// forwarding through peer GPUs (Fig. 2b) is the heterogeneous scheme's
// exclusive mechanism, expressed explicitly by its pre-reduction phases.
func FabricAllow(g *topology.Graph) func(topology.NodeID) bool {
	return func(n topology.NodeID) bool { return g.Node(n).Kind.IsSwitch() }
}

// StaticRouter routes on capacity-weighted shortest paths through the
// switching fabric (GPU relays excluded, per FabricAllow), caching one
// Dijkstra tree per (source, size-class) and the first maxMemoPaths paths
// resolved from them. Size classes keep the cache small: paths only change
// with size when fixed latencies rival serialization time, so routing on the
// class's representative size is accurate enough. Returned paths are shared
// between calls; callers must not modify them.
type StaticRouter struct {
	g     *topology.Graph
	trees map[routeKey]*topology.ShortestPaths
	paths map[pathKey]cachedPath
}

type routeKey struct {
	src   topology.NodeID
	class int
}

type pathKey struct {
	routeKey
	dst topology.NodeID
}

type cachedPath struct {
	path topology.Path
	ok   bool
}

// maxMemoPaths caps the path memo. Serving runs on the 16-GPU testbed
// resolve a few hundred distinct paths at most, so the cap never binds
// there; a 192-GPU pod resolves tens of thousands per run, and memoizing
// them all would add several MiB of live heap for little gain. Paths past
// the cap are rebuilt from the cached tree on every call.
const maxMemoPaths = 1024

// NewStaticRouter returns a Router over g.
func NewStaticRouter(g *topology.Graph) *StaticRouter {
	return &StaticRouter{
		g:     g,
		trees: make(map[routeKey]*topology.ShortestPaths),
		paths: make(map[pathKey]cachedPath),
	}
}

// sizeClass buckets sizes by decade.
func sizeClass(size int64) (class int, representative int64) {
	rep := int64(1)
	c := 0
	for rep < size {
		rep *= 10
		c++
	}
	return c, rep
}

// capacityCost routes on full capacity (static, load-oblivious).
func capacityCost(size int64) topology.EdgeCost {
	return func(e *topology.Edge) float64 {
		return float64(size)/e.Capacity + e.Latency
	}
}

// Route implements Router.
func (r *StaticRouter) Route(a, b topology.NodeID, size int64) (topology.Path, bool) {
	class, rep := sizeClass(size)
	key := pathKey{routeKey{src: a, class: class}, b}
	if c, hit := r.paths[key]; hit {
		return c.path, c.ok
	}
	sp, ok := r.trees[key.routeKey]
	if !ok {
		sp = r.g.Dijkstra(a, capacityCost(rep), FabricAllow(r.g))
		r.trees[key.routeKey] = sp
	}
	p, ok := sp.PathTo(b)
	if len(r.paths) < maxMemoPaths {
		r.paths[key] = cachedPath{p, ok}
	}
	return p, ok
}

// MatrixRouter adapts a precomputed topology.Matrix (the planner's P(k,a)
// table) into a Router. Pairs outside the matrix working set fail.
type MatrixRouter struct {
	M *topology.Matrix
}

// Route implements Router.
func (r MatrixRouter) Route(a, b topology.NodeID, _ int64) (topology.Path, bool) {
	return r.M.PathBetween(a, b)
}

// RingOrder returns the group's GPUs in the ring order used by all ring
// all-reduces: grouped by server, so adjacent ring neighbours share NVLink
// whenever possible (NCCL's topology-aware ordering), with deterministic id
// ordering inside and across servers.
func RingOrder(g *topology.Graph, group []topology.NodeID) []topology.NodeID {
	out := append([]topology.NodeID(nil), group...)
	sort.Slice(out, func(i, j int) bool {
		ni, nj := g.Node(out[i]), g.Node(out[j])
		if ni.Server != nj.Server {
			return ni.Server < nj.Server
		}
		return out[i] < out[j]
	})
	return out
}

// ServerLeaders partitions the group by server and returns, per server, the
// lowest-id GPU as that server's leader plus its local members (leader
// first). Iteration order is deterministic (ascending leader id).
func ServerLeaders(g *topology.Graph, group []topology.NodeID) [][]topology.NodeID {
	return leadersBy(group, func(id topology.NodeID) [2]int {
		return [2]int{g.Node(id).Server, 0}
	})
}

// NUMALeaders partitions the group by (server, NUMA domain): the §VII
// future-work refinement for PCIe-only servers, where pre-reducing within a
// socket avoids the derated cross-NUMA links. On NVLink servers every GPU
// reports domain 0, so this degenerates to ServerLeaders.
func NUMALeaders(g *topology.Graph, group []topology.NodeID) [][]topology.NodeID {
	return leadersBy(group, func(id topology.NodeID) [2]int {
		n := g.Node(id)
		return [2]int{n.Server, n.NUMA}
	})
}

func leadersBy(group []topology.NodeID, key func(topology.NodeID) [2]int) [][]topology.NodeID {
	parts := make(map[[2]int][]topology.NodeID)
	for _, id := range group {
		k := key(id)
		parts[k] = append(parts[k], id)
	}
	var out [][]topology.NodeID
	for _, members := range parts {
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
