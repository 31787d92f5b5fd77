package collective

import (
	"cmp"
	"math"
	"slices"

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

// RingStepTime evaluates Eq. 11 for one synchronization step of stepBytes
// total payload over the group: T_ring = 2(P-1) * (stepBytes/P) / min B(e)
// over the ring's segment paths, plus the sequential per-hop fixed
// latencies. It returns +Inf when some segment is unroutable.
func RingStepTime(g *topology.Graph, r Router, grp *Group, stepBytes int64) float64 {
	order := grp.Ring()
	p := len(order)
	if p <= 1 {
		return 0
	}
	var buf [16]topology.EdgeID
	minBW := math.Inf(1)
	maxLat := 0.0
	for i, a := range order {
		edges, ok := appendRoute(r, buf[:0], a, order[(i+1)%p], stepBytes/int64(p))
		if !ok {
			return math.Inf(1)
		}
		var lat float64
		for _, eid := range edges {
			e := g.Edge(eid)
			if e.Available < minBW {
				minBW = e.Available
			}
			lat += e.Latency
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
func INAStepTime(g *topology.Graph, r Router, grp *Group, sw topology.NodeID, stepBytes int64) float64 {
	members := grp.Members()
	if len(members) == 0 {
		return 0
	}
	// The members' paths go end to end into edges, member i's ending at
	// ends[i]. loads holds the bytes crossing each of their edges: a
	// group's paths share few edges, so a linear scan replaces a map. Small
	// groups fit the stack buffers.
	var edgeBuf [128]topology.EdgeID
	var endBuf [16]int
	var loadBuf [64]edgeLoad
	edges, ends, loads := edgeBuf[:0], endBuf[:0], loadBuf[:0]
	for _, k := range members {
		var ok bool
		if edges, ok = appendRoute(r, edges, k, sw, stepBytes); !ok {
			return math.Inf(1)
		}
		ends = append(ends, len(edges))
	}
	for _, eid := range edges {
		i := loadIndex(loads, eid)
		if i < 0 {
			i = len(loads)
			loads = append(loads, edgeLoad{eid: eid})
		}
		loads[i].bytes += float64(stepBytes)
	}
	var worst float64
	start := 0
	for _, end := range ends {
		var t float64
		for _, eid := range edges[start:end] {
			e := g.Edge(eid)
			if e.Available <= 0 {
				return math.Inf(1)
			}
			t += loads[loadIndex(loads, eid)].bytes/e.Available + e.Latency
		}
		if t > worst {
			worst = t
		}
		start = end
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
func HeteroStepTime(g *topology.Graph, r Router, grp *Group, sw topology.NodeID, stepBytes int64) float64 {
	return heteroStepTime(g, r, &grp.server, sw, stepBytes)
}

// HeteroNUMAStepTime evaluates the NUMA-aware variant (§VII future work):
// pre-reduction per (server, NUMA domain) avoids derated cross-socket PCIe.
func HeteroNUMAStepTime(g *topology.Graph, r Router, grp *Group, sw topology.NodeID, stepBytes int64) float64 {
	return heteroStepTime(g, r, grp.numa, sw, stepBytes)
}

func heteroStepTime(g *topology.Graph, r Router, part *partition, sw topology.NodeID, stepBytes int64) float64 {
	timer := timerFor(r)
	var intra float64
	for _, members := range part.parts {
		for _, m := range members[1:] {
			t, ok := timer.TransferTime(g, m, members[0], stepBytes)
			if !ok {
				return math.Inf(1)
			}
			if t > intra {
				intra = t
			}
		}
	}
	var inter float64
	if len(part.parts) > 1 {
		inter = INAStepTime(g, r, part.leaders, sw, stepBytes)
		if math.IsInf(inter, 1) {
			return inter
		}
	}
	// Pre-reduce in, broadcast out: the intra cost is paid twice.
	return 2*intra + inter
}

// BestAggSwitch returns the switch minimizing the worst-case member-to-
// switch transfer time for stepBytes (Alg. 2 line 7: "find V_s with the
// smallest delay to the group"), and that minimum; of equal minima, the
// first in g.Switches() order. ok is false when no switch is reachable from
// every member.
//
// A switch's worst-case time is at least its time from any one member, so
// the scan visits the switches in ascending time from the group's first
// member and stops at the first whose time from it is strictly above the
// best worst-case found: every later switch is strictly worse, so none of
// them can win or tie. A MatrixRouter at its own size answers every time
// from its per-source switch rows of D and the visiting order from its
// per-source cache, so the scan allocates nothing and builds no path.
func BestAggSwitch(g *topology.Graph, r Router, grp *Group, stepBytes int64) (sw topology.NodeID, delay float64, ok bool) {
	switches := g.Switches()
	members := grp.Members()
	if len(members) == 0 {
		if len(switches) == 0 {
			return 0, 0, false
		}
		return switches[0], 0, true
	}
	var rowBuf [16][]float64
	rows, order := switchTimes(g, r, members, stepBytes, rowBuf[:0])
	best, bestIdx := math.Inf(1), int32(-1)
	for _, i := range order {
		lower := rows[0][i]
		if lower > best || math.IsInf(lower, 1) {
			break
		}
		worst := lower
		for _, row := range rows[1:] {
			worst = max(worst, row[i])
		}
		// +Inf marks a member that cannot reach the switch.
		if !math.IsInf(worst, 1) && (worst < best || worst == best && i < bestIdx) {
			best, bestIdx = worst, i
		}
	}
	if bestIdx < 0 {
		return 0, 0, false
	}
	return switches[bestIdx], best, true
}

// switchTimes appends to rows, per member, its transfer times for stepBytes
// to the switches, indexed like g.Switches(), +Inf where the member cannot
// reach one, and returns the indices of the switches the first member
// reaches, in ascending time from it, ties in index order. A MatrixRouter
// at its own size hands out its cached switch rows and order. A member
// that reaches no switch leaves no order.
func switchTimes(g *topology.Graph, r Router, members []topology.NodeID, stepBytes int64, rows [][]float64) ([][]float64, []int32) {
	if mr, ok := r.(MatrixRouter); ok && stepBytes == mr.M.Size() {
		for _, k := range members {
			row := mr.M.SwitchDists(k)
			if row == nil {
				break
			}
			rows = append(rows, row)
		}
		if len(rows) == len(members) {
			return rows, mr.M.SwitchesByDist(members[0])
		}
		rows = rows[:0] // a part of the working set is missing: price by route
	}
	timer := timerFor(r)
	switches := g.Switches()
	for _, k := range members {
		row := make([]float64, len(switches))
		for i, s := range switches {
			row[i] = math.Inf(1)
			if t, ok := timer.TransferTime(g, k, s, stepBytes); ok {
				row[i] = t
			}
		}
		rows = append(rows, row)
	}
	first := rows[0]
	order := make([]int32, 0, len(switches))
	for i := range switches {
		if !math.IsInf(first[i], 1) {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(first[a], first[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return rows, order
}

// timerFor returns r's own transferTimer, or one pricing r's paths.
func timerFor(r Router) transferTimer {
	if t, ok := r.(transferTimer); ok {
		return t
	}
	return routeTimer{r}
}

// ChooseScheme implements Alg. 2's getlatency mode selection restricted to
// the two candidates of Eq. 7 (INA vs ring), evaluated per step. hetero
// additionally considers the heterogeneous variant when permitted; the
// cheapest scheme and its per-step latency are returned.
func ChooseScheme(g *topology.Graph, r Router, grp *Group, sw topology.NodeID, stepBytes int64, hetero bool) (Scheme, float64) {
	ring := RingStepTime(g, r, grp, stepBytes)
	ina := INAStepTime(g, r, grp, sw, stepBytes)
	best, scheme := ring, SchemeRing
	if ina < best {
		best, scheme = ina, SchemeINASync
	}
	if hetero {
		if h := HeteroStepTime(g, r, grp, sw, stepBytes); h < best {
			best, scheme = h, SchemeHetero
		}
	}
	return scheme, best
}
