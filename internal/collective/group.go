package collective

import (
	"slices"

	"heroserve/internal/topology"
)

// Group is a GPU group prepared for repeated collectives. A deployment fixes
// its tensor-parallel groups when it is planned, as an NCCL communicator
// fixes its ranks, so NewGroup derives everything an all-reduce needs from
// the membership once: the id-sorted members, the ring order, and the server
// and NUMA partitions with their leaders. Every all-reduce and every
// analytic estimator then runs on these without sorting or partitioning.
// The slices its accessors return are shared and must not be modified.
//
// Under a StaticRouter, a group also keeps the paths of its phases
// (routes), so a launch routes each phase once per size class.
//
// Reset re-prepares a group for new members in its own buffers, as the
// planner's perturbation does after every trial swap. A group must not be
// reset while a collective on it is in flight.
type Group struct {
	members []topology.NodeID // ascending ids
	ring    []topology.NodeID // ringOrder of the members: members itself, or ringBuf
	ringBuf []topology.NodeID
	server  partition  // by server (serverLeaders)
	numa    *partition // by (server, NUMA domain) (numaLeaders): &server, or &numaBuf
	numaBuf partition
	routes  *routeCache // nil until a launch under a StaticRouter, and after Reset
}

// partition is a group split into parts that each pre-reduce to a leader,
// the heterogeneous all-reduce's shape.
type partition struct {
	parts [][]topology.NodeID // leader first, ordered by leader id
	ids   []topology.NodeID   // the parts' backing array
	// leaders is the inter-part phase's group, one leader per part: the
	// group itself when every part is a single GPU, and nil when there is
	// only one part, since one part has no inter-part phase.
	leaders *Group
	// own holds the leaders' group, when it is neither of those, across
	// Resets.
	own *Group
	// intraFlows counts the members that are not leaders: the flows of
	// each intra-part phase.
	intraFlows int
}

// phase names the path list of one collective phase.
type phase uint8

const (
	phaseRing      phase = iota // each member to its ring successor, in ring order
	phaseINA                    // each member to the switch, in id order
	phaseReduce                 // each non-leader to its part's leader, part by part
	phaseBroadcast              // each part's leader to its non-leaders, part by part
)

// phaseKey names one cached path list: a phase at one size class, for
// phaseINA at one switch, and for phaseReduce and phaseBroadcast over one
// of the group's partitions.
type phaseKey struct {
	phase phase
	class int
	sw    topology.NodeID
	part  *partition
}

// pathList is one phase's paths, in the order a launch starts their flows,
// and the largest fixed latency among them. In a group's route cache, key
// names it.
type pathList struct {
	key    phaseKey
	paths  []topology.Path
	maxLat float64
}

// routeCache holds a group's path lists filled under one StaticRouter,
// each under its key. They are exact: a StaticRouter's Route is a pure
// function of its graph, the two endpoints and the size class, so a list
// filled at one size is the one any size of its class would route. A group
// holds few lists (its phases at the size classes its messages span), so
// lookup is a linear scan.
type routeCache struct {
	router *StaticRouter
	lists  []pathList
}

// lookup returns the list for key and whether it is filled. On a miss it
// caches an empty list under key, with room for n paths, for the caller to
// fill. The list stays valid until the next lookup in the same cache.
func (rc *routeCache) lookup(key phaseKey, n int) (*pathList, bool) {
	for i := range rc.lists {
		if rc.lists[i].key == key {
			return &rc.lists[i], true
		}
	}
	rc.lists = append(rc.lists, pathList{key: key, paths: make([]topology.Path, 0, n)})
	return &rc.lists[len(rc.lists)-1], false
}

// NewGroup prepares the group of the given GPUs, in any order.
func NewGroup(g *topology.Graph, members []topology.NodeID) *Group {
	grp := new(Group)
	grp.Reset(g, members)
	return grp
}

// Reset re-prepares the group for the given GPUs, in any order, reusing its
// buffers: it allocates nothing once they have grown to the group's size.
// members may alias the group's own Members.
func (grp *Group) Reset(g *topology.Graph, members []topology.NodeID) {
	grp.members = append(grp.members[:0], members...)
	slices.Sort(grp.members)
	grp.routes = nil
	grp.ring = ringOrder(g, grp.members, grp.ringBuf)
	if len(grp.ring) > 0 && &grp.ring[0] != &grp.members[0] {
		grp.ringBuf = grp.ring
	}
	grp.partition(g, &grp.server, false)
	// NUMA domains refine servers, so a group whose GPUs all report domain
	// 0, as every NVLink server's do, has its server parts as NUMA parts.
	grp.numa = &grp.server
	for _, id := range grp.members {
		if g.Node(id).NUMA != 0 {
			grp.partition(g, &grp.numaBuf, true)
			grp.numa = &grp.numaBuf
			break
		}
	}
}

// partition splits the group's members into p by server, or by (server,
// NUMA domain) when numa is set, and prepares the parts' leaders' group.
func (grp *Group) partition(g *topology.Graph, p *partition, numa bool) {
	p.ids, p.parts = leadersBy(p.ids, p.parts, g, grp.members, numa)
	p.intraFlows = len(grp.members) - len(p.parts)
	switch {
	case len(p.parts) == len(grp.members):
		p.leaders = grp
	case len(p.parts) == 1:
		p.leaders = nil
	default:
		if p.own == nil {
			p.own = new(Group)
		}
		leaders := p.own.members[:0]
		for _, part := range p.parts {
			leaders = append(leaders, part[0])
		}
		p.own.Reset(g, leaders)
		p.leaders = p.own
	}
}

// Size returns the number of GPUs in the group.
func (grp *Group) Size() int { return len(grp.members) }

// Members returns the GPUs in ascending id order.
func (grp *Group) Members() []topology.NodeID { return grp.members }

// Ring returns the GPUs in ring order: grouped by server, so adjacent ring
// neighbours share NVLink whenever possible (NCCL's topology-aware
// ordering), by id inside and across servers.
func (grp *Group) Ring() []topology.NodeID { return grp.ring }

// ServerParts returns the group partitioned by server: per server, its
// leader (the lowest id) first, then its other GPUs, the servers in
// ascending leader order.
func (grp *Group) ServerParts() [][]topology.NodeID { return grp.server.parts }

// ringOrder returns the group's GPUs in ring order (Group.Ring). A group
// already in ring order, as id-sorted groups are when GPU ids ascend by
// server, is returned as is; otherwise the order is built in buf's array,
// which grows as needed.
func ringOrder(g *topology.Graph, group, buf []topology.NodeID) []topology.NodeID {
	sorted := true
	for i := 1; i < len(group) && sorted; i++ {
		sorted = !ringBefore(g, group[i], group[i-1])
	}
	if sorted {
		return group
	}
	out := append(buf[:0], group...)
	slices.SortFunc(out, func(a, b topology.NodeID) int {
		if ringBefore(g, a, b) {
			return -1
		}
		if ringBefore(g, b, a) {
			return 1
		}
		return 0
	})
	return out
}

// ringBefore is the ring order: by server, then by id.
func ringBefore(g *topology.Graph, a, b topology.NodeID) bool {
	na, nb := g.Node(a), g.Node(b)
	if na.Server != nb.Server {
		return na.Server < nb.Server
	}
	return a < b
}

// partKey is the key a part's GPUs share: the server, and the NUMA domain
// when numa is set.
func partKey(g *topology.Graph, numa bool, id topology.NodeID) [2]int {
	n := g.Node(id)
	if numa {
		return [2]int{n.Server, n.NUMA}
	}
	return [2]int{n.Server, 0}
}

// leadersBy partitions the group by partKey into ids and parts, reusing
// their arrays: an id-sorted copy of the group, stably grouped by key in place,
// so each part is ascending, its lowest id (the leader) first, and the
// parts are ordered by their leaders. Each part is capped at its own
// length.
func leadersBy(ids []topology.NodeID, parts [][]topology.NodeID, g *topology.Graph, group []topology.NodeID, numa bool) ([]topology.NodeID, [][]topology.NodeID) {
	key := func(id topology.NodeID) [2]int { return partKey(g, numa, id) }
	ids = append(ids[:0], group...)
	slices.Sort(ids)
	for i := 0; i < len(ids); {
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
	parts = parts[:0]
	for i := 0; i < len(ids); {
		k := key(ids[i])
		j := i + 1
		for j < len(ids) && key(ids[j]) == k {
			j++
		}
		parts = append(parts, ids[i:j:j])
		i = j
	}
	return ids, parts
}
