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
	"math"

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
// resolved from them. Capacities do not change, so each class's edge costs
// are evaluated once, into a topology.Routing its trees share. Size classes
// keep the cache small: paths only change with size when fixed latencies
// rival serialization time, so routing on the class's representative size
// is accurate enough. Returned paths are shared between calls; callers must
// not modify them.
type StaticRouter struct {
	g        *topology.Graph
	routings map[int]*topology.Routing // per size class
	trees    map[routeKey]*topology.ShortestPaths
	paths    map[pathKey]cachedPath
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
// there. A summ-pod8-faults realization on the 192-GPU pod resolves about
// 3k, nearly every one of them once, so memoizing them all would only hold
// their nodes and edges live for the rest of the run. Paths past the cap
// are rebuilt from the cached tree on every call, a short walk up the tree.
// Background traffic, which draws random pairs from tens of thousands,
// routes with AppendRoute and does not touch the memo.
const maxMemoPaths = 1024

// NewStaticRouter returns a Router over g.
func NewStaticRouter(g *topology.Graph) *StaticRouter {
	return &StaticRouter{
		g:        g,
		routings: make(map[int]*topology.Routing),
		trees:    make(map[routeKey]*topology.ShortestPaths),
		paths:    make(map[pathKey]cachedPath),
	}
}

// maxSizeClass is the largest decade whose representative, 10^18, fits in
// an int64.
const maxSizeClass = 18

// sizeClass buckets sizes by decade: the class of size is the smallest c
// with 10^c >= size, and 10^c is its representative. Sizes above 10^18
// saturate into class 18.
func sizeClass(size int64) (class int, representative int64) {
	rep := int64(1)
	c := 0
	for rep < size && c < maxSizeClass {
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
	p, ok := r.tree(a, class, rep).PathTo(b)
	if len(r.paths) < maxMemoPaths {
		r.paths[key] = cachedPath{p, ok}
	}
	return p, ok
}

// AppendRoute appends Route's path from a to b, in travel order, to nodes
// and edges and returns the extended slices: the same route, walked up the
// cached tree into caller-owned buffers instead of a memoized Path, so it
// allocates nothing when the buffers have room. ok is false, and the slices
// come back unchanged, when b is unreachable.
func (r *StaticRouter) AppendRoute(nodes []topology.NodeID, edges []topology.EdgeID, a, b topology.NodeID, size int64) ([]topology.NodeID, []topology.EdgeID, bool) {
	class, rep := sizeClass(size)
	return r.tree(a, class, rep).AppendPathTo(nodes, edges, b)
}

// tree returns the cached shortest-path tree rooted at src for one size
// class (rep is the class's representative size), building it on first use.
func (r *StaticRouter) tree(src topology.NodeID, class int, rep int64) *topology.ShortestPaths {
	key := routeKey{src: src, class: class}
	sp, ok := r.trees[key]
	if !ok {
		routing, ok := r.routings[class]
		if !ok {
			routing = r.g.NewRouting(capacityCost(rep), FabricAllow(r.g))
			r.routings[class] = routing
		}
		sp = routing.From(src)
		r.trees[key] = sp
	}
	return sp
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

// TransferTime returns the time to move size bytes from a to b along
// Route's path, and false when Route fails. For the size the matrix routes
// for, that is D(a,b); for any other size, the path's edges are walked off
// a's tree. Neither builds the path.
func (r MatrixRouter) TransferTime(g *topology.Graph, a, b topology.NodeID, size int64) (float64, bool) {
	if size == r.M.Size() {
		d := r.M.Dist(a, b)
		return d, !math.IsInf(d, 1)
	}
	var buf [16]topology.EdgeID
	edges, ok := r.M.AppendEdges(buf[:0], a, b)
	if !ok {
		return 0, false
	}
	path := topology.Path{Edges: edges}
	return path.TransferTime(g, size), true
}

// appendRoute appends the edges of r's route from a to b for size bytes,
// in travel order, to edges. A MatrixRouter walks its tree into the
// caller's buffer, building no Path; any other router copies its path's
// edges. ok is false, and edges comes back unchanged, when r finds no
// route.
func appendRoute(r Router, edges []topology.EdgeID, a, b topology.NodeID, size int64) ([]topology.EdgeID, bool) {
	if mr, ok := r.(MatrixRouter); ok {
		return mr.M.AppendEdges(edges, a, b)
	}
	path, ok := r.Route(a, b, size)
	if !ok {
		return edges, false
	}
	return append(edges, path.Edges...), true
}

// transferTimer prices the transfer of size bytes from a to b along a
// router's path; ok is false when the router finds none. MatrixRouter
// implements it without building the path; routeTimer adapts any Router.
type transferTimer interface {
	TransferTime(g *topology.Graph, a, b topology.NodeID, size int64) (float64, bool)
}

// routeTimer prices a transfer by way of its router's path.
type routeTimer struct{ r Router }

func (t routeTimer) TransferTime(g *topology.Graph, a, b topology.NodeID, size int64) (float64, bool) {
	path, ok := t.r.Route(a, b, size)
	if !ok {
		return 0, false
	}
	return path.TransferTime(g, size), true
}
