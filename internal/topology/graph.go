// Package topology models the heterogeneous cluster network of the paper: GPU
// and switch nodes joined by NVLink, PCIe, and Ethernet edges, each with a
// maximum capacity C and a currently-available bandwidth B (paper Table I).
// It provides Dijkstra shortest paths, the offline all-pairs latency matrix
// D(i,j) and path matrix P(k,a) used by the planner (Alg. 2), and builders
// for the paper's testbed (Fig. 6) and the 2tracks/8tracks simulation pods.
package topology

import (
	"fmt"
)

// NodeID indexes a node in a Graph. IDs are dense: 0..NumNodes-1.
type NodeID int

// EdgeID indexes an edge in a Graph. IDs are dense: 0..NumEdges-1.
type EdgeID int

// NodeKind classifies nodes.
type NodeKind uint8

const (
	// KindGPU is an accelerator with an RDMA NIC (GPU Direct), per §II-C.
	KindGPU NodeKind = iota
	// KindAccessSwitch is a programmable top-of-rack switch (Tofino in the
	// paper) capable of in-network aggregation.
	KindAccessSwitch
	// KindCoreSwitch is an aggregation/core switch, also INA-capable.
	KindCoreSwitch
	// KindHost is a non-GPU server (the parameter server / traffic replayer
	// in the testbed).
	KindHost
)

func (k NodeKind) String() string {
	switch k {
	case KindGPU:
		return "gpu"
	case KindAccessSwitch:
		return "access-switch"
	case KindCoreSwitch:
		return "core-switch"
	case KindHost:
		return "host"
	}
	return fmt.Sprintf("NodeKind(%d)", uint8(k))
}

// IsSwitch reports whether the kind is one of the switch kinds.
func (k NodeKind) IsSwitch() bool { return k == KindAccessSwitch || k == KindCoreSwitch }

// LinkKind classifies edges by physical technology.
type LinkKind uint8

const (
	// LinkEthernet is an inter-server RDMA-over-Ethernet link (100 Gb/s in
	// the paper's testbed).
	LinkEthernet LinkKind = iota
	// LinkNVLink is an intra-server GPU-to-GPU link.
	LinkNVLink
	// LinkPCIe is an intra-server fallback link (paper future work §VII).
	LinkPCIe
	// LinkTrunk is a switch-to-switch link.
	LinkTrunk
)

func (k LinkKind) String() string {
	switch k {
	case LinkEthernet:
		return "ethernet"
	case LinkNVLink:
		return "nvlink"
	case LinkPCIe:
		return "pcie"
	case LinkTrunk:
		return "trunk"
	}
	return fmt.Sprintf("LinkKind(%d)", uint8(k))
}

// Node is a vertex of the cluster graph.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string

	// GPU-only attributes (zero for switches/hosts).
	Server      int    // server index the GPU belongs to, -1 for non-GPUs
	NUMA        int    // NUMA domain within the server (0 when irrelevant)
	GPUType     string // e.g. "A100", "V100", "L40"
	MemoryBytes int64  // total HBM capacity
	FreeBytes   int64  // remaining memory M_g (Table I), mutated by placement

	// Switch-only attributes.
	INASlots int // aggregator slot capacity (0 = not INA-capable)
}

// Edge is an undirected link between two nodes.
type Edge struct {
	ID   EdgeID
	A, B NodeID
	Kind LinkKind

	// Capacity is the maximum bandwidth C(e) in bytes/second.
	Capacity float64
	// Available is the remaining bandwidth B(e) in bytes/second. Builders
	// initialize it to Capacity; the planner and scheduler mutate it.
	Available float64
	// Latency is the fixed per-traversal latency in seconds (propagation +
	// switching), independent of message size.
	Latency float64
}

// Other returns the endpoint of e opposite n. It panics if n is not an
// endpoint: callers hold an adjacency invariant, so violation is a bug.
func (e *Edge) Other(n NodeID) NodeID {
	switch n {
	case e.A:
		return e.B
	case e.B:
		return e.A
	}
	panic(fmt.Sprintf("topology: node %d not an endpoint of edge %d", n, e.ID))
}

// Graph is the cluster network. Modifications are append-only (AddNode,
// AddEdge); bandwidth fields of edges and memory fields of nodes are the only
// mutable state after construction.
type Graph struct {
	nodes []Node
	edges []Edge
	adj   [][]EdgeID // adjacency: node -> incident edge ids

	gpus     []NodeID
	switches []NodeID

	// servers maps server index -> GPU node ids on that server.
	servers map[int][]NodeID
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{servers: make(map[int][]NodeID)}
}

// AddNode appends a node and returns its id. The Server field of GPU nodes
// registers them in the per-server index; non-GPU callers should leave
// Server as anything (it is normalized to -1).
func (g *Graph) AddNode(n Node) NodeID {
	id := NodeID(len(g.nodes))
	n.ID = id
	if n.Kind != KindGPU {
		n.Server = -1
	}
	g.nodes = append(g.nodes, n)
	g.adj = append(g.adj, nil)
	switch {
	case n.Kind == KindGPU:
		g.gpus = append(g.gpus, id)
		g.servers[n.Server] = append(g.servers[n.Server], id)
	case n.Kind.IsSwitch():
		g.switches = append(g.switches, id)
	}
	return id
}

// AddEdge appends an undirected edge with Available initialized to Capacity
// and returns its id.
func (g *Graph) AddEdge(a, b NodeID, kind LinkKind, capacity, latency float64) EdgeID {
	if int(a) >= len(g.nodes) || int(b) >= len(g.nodes) || a < 0 || b < 0 {
		panic(fmt.Sprintf("topology: AddEdge endpoints %d-%d out of range", a, b))
	}
	if a == b {
		panic(fmt.Sprintf("topology: self-loop on node %d", a))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{
		ID: id, A: a, B: b, Kind: kind,
		Capacity: capacity, Available: capacity, Latency: latency,
	})
	g.adj[a] = append(g.adj[a], id)
	g.adj[b] = append(g.adj[b], id)
	return id
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns a pointer to the node with the given id (mutable).
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// Edge returns a pointer to the edge with the given id (mutable).
func (g *Graph) Edge(id EdgeID) *Edge { return &g.edges[id] }

// Incident returns the ids of edges incident to n. The slice is owned by the
// graph; callers must not modify it.
func (g *Graph) Incident(n NodeID) []EdgeID { return g.adj[n] }

// GPUs returns the ids of all GPU nodes (graph-owned slice).
func (g *Graph) GPUs() []NodeID { return g.gpus }

// Switches returns the ids of all switch nodes (graph-owned slice).
func (g *Graph) Switches() []NodeID { return g.switches }

// ServerGPUs returns the GPU node ids on the given server (graph-owned).
func (g *Graph) ServerGPUs(server int) []NodeID { return g.servers[server] }

// NumServers returns the number of distinct GPU servers.
func (g *Graph) NumServers() int { return len(g.servers) }

// SameServer reports whether two GPU nodes live on the same server.
func (g *Graph) SameServer(a, b NodeID) bool {
	na, nb := g.Node(a), g.Node(b)
	return na.Kind == KindGPU && nb.Kind == KindGPU && na.Server == nb.Server
}
