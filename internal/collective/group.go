package collective

import (
	"slices"

	"heroserve/internal/topology"
)

// Group is a GPU group prepared for repeated collectives. A deployment fixes
// its tensor-parallel groups when it is planned, as an NCCL communicator
// fixes its ranks, so NewGroup derives everything an all-reduce needs from
// the membership once: the id-sorted members, the ring order, and the
// server and NUMA partitions with their leaders. Every all-reduce then runs
// on these without sorting or partitioning. A Group is immutable; the
// slices its accessors return are shared and must not be modified.
type Group struct {
	members []topology.NodeID // ascending ids
	ring    []topology.NodeID // RingOrder of the members
	server  partition         // by server (ServerLeaders)
	numa    partition         // by (server, NUMA domain) (NUMALeaders)
}

// partition is a group split into parts that each pre-reduce to a leader,
// the heterogeneous all-reduce's shape.
type partition struct {
	parts [][]topology.NodeID // leader first, ordered by leader id
	// leaders is the inter-part phase's group, one leader per part: the
	// group itself when every part is a single GPU, and nil when there is
	// only one part, since one part has no inter-part phase.
	leaders *Group
	// intraFlows counts the members that are not leaders: the flows of
	// each intra-part phase.
	intraFlows int
}

// NewGroup prepares the group of the given GPUs, in any order.
func NewGroup(g *topology.Graph, members []topology.NodeID) *Group {
	sorted := slices.Clone(members)
	slices.Sort(sorted)
	grp := &Group{members: sorted, ring: RingOrder(g, sorted)}
	grp.server = grp.partition(g, ServerLeaders(g, sorted))
	// NUMA domains refine servers, so a group whose GPUs all report domain
	// 0, as every NVLink server's do, has its server parts as NUMA parts.
	grp.numa = grp.server
	for _, id := range sorted {
		if g.Node(id).NUMA != 0 {
			grp.numa = grp.partition(g, NUMALeaders(g, sorted))
			break
		}
	}
	return grp
}

// partition wraps the group's parts with their leaders' group.
func (grp *Group) partition(g *topology.Graph, parts [][]topology.NodeID) partition {
	p := partition{parts: parts}
	if len(parts) == len(grp.members) {
		p.leaders = grp
		return p
	}
	for _, members := range parts {
		p.intraFlows += len(members) - 1
	}
	if len(parts) > 1 {
		leaders := make([]topology.NodeID, len(parts))
		for i, members := range parts {
			leaders[i] = members[0]
		}
		p.leaders = NewGroup(g, leaders)
	}
	return p
}

// Size returns the number of GPUs in the group.
func (grp *Group) Size() int { return len(grp.members) }

// Members returns the GPUs in ascending id order.
func (grp *Group) Members() []topology.NodeID { return grp.members }

// Ring returns the GPUs in ring order (RingOrder).
func (grp *Group) Ring() []topology.NodeID { return grp.ring }

// ServerParts returns the group partitioned by server, as ServerLeaders
// does: per server, its leader (the lowest id) first, then its other GPUs.
func (grp *Group) ServerParts() [][]topology.NodeID { return grp.server.parts }
