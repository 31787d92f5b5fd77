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
	"slices"
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
// the cap are rebuilt from the cached tree on every call. The cap is not
// the pod's bottleneck, since a rebuild is a short walk up a cached tree:
// on the summ-pod8-faults benchmark (2-vCPU Xeon), an uncapped memo cut run
// time by about 5% but raised peak RSS by 12-18%.
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
	p, ok := r.tree(a, class, rep).PathTo(b)
	if len(r.paths) < maxMemoPaths {
		r.paths[key] = cachedPath{p, ok}
	}
	return p, ok
}

// tree returns the cached shortest-path tree rooted at src for one size
// class (rep is the class's representative size), building it on first use.
func (r *StaticRouter) tree(src topology.NodeID, class int, rep int64) *topology.ShortestPaths {
	key := routeKey{src: src, class: class}
	sp, ok := r.trees[key]
	if !ok {
		sp = r.g.Dijkstra(src, capacityCost(rep), FabricAllow(r.g))
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
// for, that is D(a,b), read without building the path.
func (r MatrixRouter) TransferTime(g *topology.Graph, a, b topology.NodeID, size int64) (float64, bool) {
	if size == r.M.Size() {
		d := r.M.Dist(a, b)
		return d, !math.IsInf(d, 1)
	}
	return routeTimer{r}.TransferTime(g, a, b, size)
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

// RingOrder returns the group's GPUs in the ring order used by all ring
// all-reduces: grouped by server, so adjacent ring neighbours share NVLink
// whenever possible (NCCL's topology-aware ordering), with deterministic id
// ordering inside and across servers. A group already in ring order — as
// planned groups are: id-sorted, with GPU ids ascending by server — is
// returned as is, so the result may alias group; callers must not modify it.
func RingOrder(g *topology.Graph, group []topology.NodeID) []topology.NodeID {
	sorted := true
	for i := 1; i < len(group) && sorted; i++ {
		sorted = !ringBefore(g, group[i], group[i-1])
	}
	if sorted {
		return group
	}
	out := append([]topology.NodeID(nil), group...)
	sort.Slice(out, func(i, j int) bool { return ringBefore(g, out[i], out[j]) })
	return out
}

// ringBefore is RingOrder's order: by server, then by id.
func ringBefore(g *topology.Graph, a, b topology.NodeID) bool {
	na, nb := g.Node(a), g.Node(b)
	if na.Server != nb.Server {
		return na.Server < nb.Server
	}
	return a < b
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

// leadersBy partitions the group by key: an id-sorted copy, stably grouped
// by key in place, so each part is ascending and the parts are ordered by
// their smallest id. The parts share one backing array, each capped at its
// own length.
func leadersBy(group []topology.NodeID, key func(topology.NodeID) [2]int) [][]topology.NodeID {
	ids := slices.Clone(group)
	slices.Sort(ids)
	parts := 0
	for i := 0; i < len(ids); parts++ {
		k := key(ids[i])
		// Move the later members with key k up behind ids[i], keeping the
		// order of the ones they pass.
		j := i + 1
		for p := j; p < len(ids); p++ {
			if id := ids[p]; key(id) == k {
				copy(ids[j+1:p+1], ids[j:p])
				ids[j] = id
				j++
			}
		}
		i = j
	}
	out := make([][]topology.NodeID, 0, parts)
	for i := 0; i < len(ids); {
		k := key(ids[i])
		j := i + 1
		for j < len(ids) && key(ids[j]) == k {
			j++
		}
		out = append(out, ids[i:j:j])
		i = j
	}
	return out
}
