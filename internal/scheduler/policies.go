package scheduler

import (
	"fmt"
	"sort"

	"heroserve/internal/collective"
	"heroserve/internal/topology"
)

// BuildPolicies enumerates the candidate policies of a GPU group's cost
// table: one ring policy, plus — for each of the maxSwitches nearest
// INA-capable switches — a synchronous Ethernet INA policy and (when hetero
// is permitted and the group has co-located GPUs) a heterogeneous INA
// policy. stepBytes sizes the routing decisions. Unroutable candidates are
// skipped; the result is never empty as long as the ring is routable.
func BuildPolicies(g *topology.Graph, r collective.Router, group []topology.NodeID, stepBytes int64, maxSwitches int, hetero bool) []Policy {
	return BuildGroupPolicies(g, r, collective.NewGroup(g, group), stepBytes, maxSwitches, hetero)
}

// BuildGroupPolicies is BuildPolicies over a prepared group, whose ring
// order and server parts it reads.
func BuildGroupPolicies(g *topology.Graph, r collective.Router, grp *collective.Group, stepBytes int64, maxSwitches int, hetero bool) []Policy {
	var out []Policy
	if p, ok := ringPolicy(g, r, grp.Ring(), stepBytes); ok {
		out = append(out, p)
	}

	type cand struct {
		sw    topology.NodeID
		delay float64
	}
	var cands []cand
	for _, sw := range g.Switches() {
		if g.Node(sw).INASlots <= 0 {
			continue
		}
		worst, reachable := 0.0, true
		for _, k := range grp.Members() {
			path, ok := r.Route(k, sw, stepBytes)
			if !ok {
				reachable = false
				break
			}
			if t := path.TransferTime(g, stepBytes); t > worst {
				worst = t
			}
		}
		if reachable {
			cands = append(cands, cand{sw: sw, delay: worst})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].delay != cands[j].delay {
			return cands[i].delay < cands[j].delay
		}
		return cands[i].sw < cands[j].sw
	})
	if maxSwitches > 0 && len(cands) > maxSwitches {
		cands = cands[:maxSwitches]
	}

	multiPerServer := len(grp.ServerParts()) < grp.Size()
	for _, c := range cands {
		if p, ok := inaPolicy(g, r, grp.Members(), c.sw, stepBytes); ok {
			out = append(out, p)
		}
		if hetero && multiPerServer {
			if p, ok := heteroPolicy(g, r, grp.ServerParts(), c.sw, stepBytes); ok {
				out = append(out, p)
			}
		}
	}
	return out
}

// ringPolicy collects the edges of the ring segments of a group in ring
// order.
func ringPolicy(g *topology.Graph, r collective.Router, order []topology.NodeID, stepBytes int64) (Policy, bool) {
	n := len(order)
	set := map[topology.EdgeID]bool{}
	for i := 0; i < n; i++ {
		path, ok := r.Route(order[i], order[(i+1)%n], stepBytes)
		if !ok {
			return Policy{}, false
		}
		for _, e := range path.Edges {
			set[e] = true
		}
	}
	p := float64(len(order))
	return Policy{
		Scheme:        collective.SchemeRing,
		Switch:        -1,
		Edges:         sortedEdges(set),
		Label:         "ring",
		TrafficFactor: 2 * (p - 1) / (p * collective.RingEfficiency),
	}, true
}

// inaPolicy collects the member-to-switch path edges.
func inaPolicy(g *topology.Graph, r collective.Router, group []topology.NodeID, sw topology.NodeID, stepBytes int64) (Policy, bool) {
	set := map[topology.EdgeID]bool{}
	for _, k := range group {
		path, ok := r.Route(k, sw, stepBytes)
		if !ok {
			return Policy{}, false
		}
		for _, e := range path.Edges {
			set[e] = true
		}
	}
	return Policy{
		Scheme:        collective.SchemeINASync,
		Switch:        sw,
		Edges:         sortedEdges(set),
		Label:         fmt.Sprintf("ina@%s", g.Node(sw).Name),
		TrafficFactor: 2,
	}, true
}

// heteroPolicy collects the intra-server pre-reduction edges plus the
// leader-to-switch path edges of a group's server parts.
func heteroPolicy(g *topology.Graph, r collective.Router, servers [][]topology.NodeID, sw topology.NodeID, stepBytes int64) (Policy, bool) {
	set := map[topology.EdgeID]bool{}
	for _, members := range servers {
		leader := members[0]
		for _, m := range members[1:] {
			path, ok := r.Route(m, leader, stepBytes)
			if !ok {
				return Policy{}, false
			}
			for _, e := range path.Edges {
				set[e] = true
			}
		}
		path, ok := r.Route(leader, sw, stepBytes)
		if !ok {
			return Policy{}, false
		}
		for _, e := range path.Edges {
			set[e] = true
		}
	}
	return Policy{
		Scheme:        collective.SchemeHetero,
		Switch:        sw,
		Edges:         sortedEdges(set),
		Label:         fmt.Sprintf("hetero@%s", g.Node(sw).Name),
		TrafficFactor: 2,
	}, true
}

func sortedEdges(set map[topology.EdgeID]bool) []topology.EdgeID {
	out := make([]topology.EdgeID, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
