package collective

import (
	"math"

	"heroserve/internal/switchsim"
	"heroserve/internal/topology"
)

// RingEfficiency is the fraction of line rate a chunked NCCL-style ring
// all-reduce achieves on RDMA Ethernet (protocol overheads, chunk pipeline
// bubbles, straggler steps). ~60% is the commonly measured bus-bandwidth
// derating on 100 GbE and is what makes Fig. 1's communication share reach
// the paper's 65-75%. In-network aggregation streams are not derated: they
// are single unidirectional flows.
const RingEfficiency = 0.6

// Scheme identifies a communication scheme for one GPU group's
// synchronization (the alpha/beta selectors of Eq. 7).
type Scheme uint8

const (
	// SchemeRing is NCCL-style ring all-reduce (Eq. 11).
	SchemeRing Scheme = iota
	// SchemeINASync is SwitchML-style synchronous in-network aggregation.
	SchemeINASync
	// SchemeINAAsync is ATP-style asynchronous in-network aggregation.
	SchemeINAAsync
	// SchemeHetero is HeroServe's heterogeneous INA: NVLink pre-reduction
	// inside each server, Ethernet INA across server leaders, NVLink
	// broadcast back.
	SchemeHetero
)

func (s Scheme) String() string {
	switch s {
	case SchemeRing:
		return "ring"
	case SchemeINASync:
		return "ina-sync"
	case SchemeINAAsync:
		return "ina-async"
	case SchemeHetero:
		return "ina-hetero"
	}
	return "unknown"
}

// UsesINA reports whether the scheme aggregates in the network.
func (s Scheme) UsesINA() bool { return s != SchemeRing }

// ringSegments returns the consecutive (a, b) pairs of the ring over the
// group (in RingOrder), including the wrap-around segment.
func ringSegments(g *topology.Graph, group []topology.NodeID) [][2]topology.NodeID {
	order := RingOrder(g, group)
	n := len(order)
	segs := make([][2]topology.NodeID, 0, n)
	for i := 0; i < n; i++ {
		segs = append(segs, [2]topology.NodeID{order[i], order[(i+1)%n]})
	}
	return segs
}

// RingStepTime evaluates Eq. 11 for one synchronization step of stepBytes
// total payload over the group: T_ring = 2(P-1) * (stepBytes/P) / min B(e)
// over the ring's segment paths, plus the sequential per-hop fixed
// latencies. It returns +Inf when some segment is unroutable.
func RingStepTime(g *topology.Graph, r Router, group []topology.NodeID, stepBytes int64) float64 {
	p := len(group)
	if p <= 1 {
		return 0
	}
	minBW := math.Inf(1)
	maxLat := 0.0
	for _, seg := range ringSegments(g, group) {
		path, ok := r.Route(seg[0], seg[1], stepBytes/int64(p))
		if !ok {
			return math.Inf(1)
		}
		if bw := path.Bottleneck(g); bw < minBW {
			minBW = bw
		}
		var lat float64
		for _, eid := range path.Edges {
			lat += g.Edge(eid).Latency
		}
		if lat > maxLat {
			maxLat = lat
		}
	}
	if minBW <= 0 {
		return math.Inf(1)
	}
	steps := float64(2 * (p - 1))
	chunk := float64(stepBytes) / float64(p)
	return steps * (chunk/(minBW*RingEfficiency) + maxLat)
}

// INAStepTime evaluates Eq. 8–10 for one synchronization step: collection
// T_col = max_k sum_{e in P(k,sw)} D/B(e), a constant aggregation latency,
// and a symmetric distribution phase. One refinement over the literal
// equation: when several members' collection paths share an edge (NVLink
// relaying through a peer GPU's NIC, or a common trunk), that edge
// serializes their combined load, so D on a shared edge is the total bytes
// crossing it rather than a single member's stepBytes. This is what makes
// explicit pre-reduction (HeteroStepTime) cheaper than mere NVLink
// forwarding. It returns +Inf when some member cannot reach the switch.
func INAStepTime(g *topology.Graph, r Router, group []topology.NodeID, sw topology.NodeID, stepBytes int64) float64 {
	if len(group) == 0 {
		return 0
	}
	// loads holds the bytes crossing each edge of the members' paths. A
	// group's paths share few edges, so a linear scan replaces a map, and
	// small groups fit the stack buffers.
	var pathBuf [16]topology.Path
	var loadBuf [64]edgeLoad
	paths, loads := pathBuf[:0], loadBuf[:0]
	for _, k := range group {
		path, ok := r.Route(k, sw, stepBytes)
		if !ok {
			return math.Inf(1)
		}
		paths = append(paths, path)
		for _, eid := range path.Edges {
			i := loadIndex(loads, eid)
			if i < 0 {
				i = len(loads)
				loads = append(loads, edgeLoad{eid: eid})
			}
			loads[i].bytes += float64(stepBytes)
		}
	}
	var worst float64
	for _, path := range paths {
		var t float64
		for _, eid := range path.Edges {
			e := g.Edge(eid)
			if e.Available <= 0 {
				return math.Inf(1)
			}
			t += loads[loadIndex(loads, eid)].bytes/e.Available + e.Latency
		}
		if t > worst {
			worst = t
		}
	}
	return 2*worst + switchsim.AggLatency
}

// edgeLoad is the bytes crossing one edge in an INA collection phase.
type edgeLoad struct {
	eid   topology.EdgeID
	bytes float64
}

// loadIndex returns the index of eid's entry in loads, or -1.
func loadIndex(loads []edgeLoad, eid topology.EdgeID) int {
	for i := range loads {
		if loads[i].eid == eid {
			return i
		}
	}
	return -1
}

// HeteroStepTime evaluates HeroServe's heterogeneous scheme for one step:
// NVLink pre-reduction to each server's leader, Ethernet INA across the
// leaders at the switch, and NVLink broadcast back. Single-server groups
// reduce entirely over NVLink.
func HeteroStepTime(g *topology.Graph, r Router, group []topology.NodeID, sw topology.NodeID, stepBytes int64) float64 {
	return heteroStepTime(g, r, ServerLeaders(g, group), sw, stepBytes)
}

// HeteroNUMAStepTime evaluates the NUMA-aware variant (§VII future work):
// pre-reduction per (server, NUMA domain) avoids derated cross-socket PCIe.
func HeteroNUMAStepTime(g *topology.Graph, r Router, group []topology.NodeID, sw topology.NodeID, stepBytes int64) float64 {
	return heteroStepTime(g, r, NUMALeaders(g, group), sw, stepBytes)
}

func heteroStepTime(g *topology.Graph, r Router, servers [][]topology.NodeID, sw topology.NodeID, stepBytes int64) float64 {
	var intra float64
	leaders := make([]topology.NodeID, 0, len(servers))
	for _, members := range servers {
		leaders = append(leaders, members[0])
		for _, m := range members[1:] {
			path, ok := r.Route(m, members[0], stepBytes)
			if !ok {
				return math.Inf(1)
			}
			if t := path.TransferTime(g, stepBytes); t > intra {
				intra = t
			}
		}
	}
	var inter float64
	if len(leaders) > 1 {
		inter = INAStepTime(g, r, leaders, sw, stepBytes)
		if math.IsInf(inter, 1) {
			return inter
		}
	}
	// Pre-reduce in, broadcast out: the intra cost is paid twice.
	return 2*intra + inter
}

// BestAggSwitch returns the switch minimizing the worst-case member-to-
// switch transfer time for stepBytes (Alg. 2 line 7: "find V_s with the
// smallest delay to the group"), and that minimum. ok is false when no
// switch is reachable from every member. A MatrixRouter answers each
// member-to-switch time from D, without building the path.
func BestAggSwitch(g *topology.Graph, r Router, group []topology.NodeID, stepBytes int64) (sw topology.NodeID, delay float64, ok bool) {
	timer, fast := r.(transferTimer)
	if !fast {
		timer = routeTimer{r}
	}
	best := math.Inf(1)
	bestSw := topology.NodeID(-1)
	for _, s := range g.Switches() {
		var worst float64
		reachable := true
		for _, k := range group {
			t, found := timer.TransferTime(g, k, s, stepBytes)
			if !found {
				reachable = false
				break
			}
			if t > worst {
				worst = t
			}
		}
		if reachable && worst < best {
			best = worst
			bestSw = s
		}
	}
	if bestSw < 0 {
		return 0, 0, false
	}
	return bestSw, best, true
}

// ChooseScheme implements Alg. 2's getlatency mode selection restricted to
// the two candidates of Eq. 7 (INA vs ring), evaluated per step. hetero
// additionally considers the heterogeneous variant when permitted; the
// cheapest scheme and its per-step latency are returned.
func ChooseScheme(g *topology.Graph, r Router, group []topology.NodeID, sw topology.NodeID, stepBytes int64, hetero bool) (Scheme, float64) {
	ring := RingStepTime(g, r, group, stepBytes)
	ina := INAStepTime(g, r, group, sw, stepBytes)
	best, scheme := ring, SchemeRing
	if ina < best {
		best, scheme = ina, SchemeINASync
	}
	if hetero {
		if h := HeteroStepTime(g, r, group, sw, stepBytes); h < best {
			best, scheme = h, SchemeHetero
		}
	}
	return scheme, best
}
