package planner

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"heroserve/internal/collective"
	"heroserve/internal/serving"
	"heroserve/internal/topology"
)

// clusterParams parameterizes one cluster's (prefill or decode) network
// estimation.
type clusterParams struct {
	role     serving.Role
	ptens    int
	ppipe    int
	pool     []topology.NodeID
	msgBytes int64 // bytes per tensor-parallel synchronization step
	// trees routes msgBytes transfers from the role's pool plus the
	// switches; it is the same for every candidate, so Solve keeps one per
	// role across them.
	trees    *topology.Trees
	steps    int   // sync steps per stage per forward pass
	actBytes int64 // pipeline activation bytes between stages
}

// estimateNetwork implements Alg. 2 for one cluster: memory filtering
// (Alg. 1 lines 5-8 / 12-15), the offline latency/path matrices, constrained
// clustering into P_pipe groups of P_tens GPUs, aggregation-switch
// selection, per-group INA/ring mode choice, random-swap perturbation, and
// the resulting per-pass synchronization latency T_n. It also shapes every
// full replica the pool can hold into serving.InstanceSpecs.
func estimateNetwork(in *Inputs, p clusterParams, rng *rand.Rand) clusterEstimate {
	g := in.Graph
	weight := in.Model.WeightBytesPerGPU(p.ptens, p.ppipe)
	mreq := int64(float64(weight) / in.RFrac)

	var eligible []topology.NodeID
	for _, id := range p.pool {
		if g.Node(id).FreeBytes >= mreq {
			eligible = append(eligible, id)
		}
	}
	per := p.ptens * p.ppipe
	if len(eligible) < per {
		return clusterEstimate{reason: fmt.Sprintf("%d eligible GPUs < %d needed", len(eligible), per)}
	}
	replicas := len(eligible) / per
	usable := eligible[:replicas*per]

	// Offline matrices over the usable GPUs plus every switch (Alg. 2
	// lines 2-3), routed through the switching fabric (no GPU relays).
	working := append(append([]topology.NodeID{}, usable...), g.Switches()...)
	matrix := p.trees.Matrix(working)
	router := collective.MatrixRouter{M: matrix}
	dist := func(a, b topology.NodeID) float64 { return matrix.Dist(a, b) }

	groups, err := GroupGPUs(dist, usable, replicas*p.ppipe, p.ptens)
	if err != nil {
		return clusterEstimate{reason: err.Error()}
	}

	// Perturbation refines group membership against the chosen-scheme
	// latency (Alg. 2 lines 12-22).
	eval := func(group []topology.NodeID) float64 {
		return bestGroupLatency(g, router, group, p.msgBytes, in.Hetero)
	}
	iters := Perturb(groups, eval, in.MaxPerturbIters, rng)

	// Deterministic stage order: groups sorted by their smallest member.
	for _, grp := range groups {
		sort.Slice(grp, func(i, j int) bool { return grp[i] < grp[j] })
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })

	// Per-group switch + scheme decisions (alpha/beta and V_ina).
	type groupPlan struct {
		members []topology.NodeID
		sw      topology.NodeID
		scheme  collective.Scheme
		stepLat float64
	}
	plans := make([]groupPlan, len(groups))
	for i, grp := range groups {
		sw, _, ok := collective.BestAggSwitch(g, router, grp, p.msgBytes)
		if !ok {
			sw = -1
		}
		scheme, lat := chooseGroupScheme(g, router, grp, sw, p.msgBytes, in.Hetero)
		plans[i] = groupPlan{members: grp, sw: sw, scheme: scheme, stepLat: lat}
	}

	// Shape replicas: consecutive P_pipe groups form one instance.
	est := clusterEstimate{feasible: true, iterations: iters}
	for r := 0; r < replicas; r++ {
		spec := serving.InstanceSpec{Role: p.role}
		for s := 0; s < p.ppipe; s++ {
			gp := plans[r*p.ppipe+s]
			spec.Stages = append(spec.Stages, gp.members)
			spec.AggSwitch = append(spec.AggSwitch, gp.sw)
			spec.Scheme = append(spec.Scheme, gp.scheme)
		}
		est.instances = append(est.instances, spec)
	}

	// T_n for one pass of the first replica: per-stage sync steps plus
	// inter-stage activation hand-offs (Eq. 5-6).
	var tn float64
	first := plans[:p.ppipe]
	for _, gp := range first {
		if math.IsInf(gp.stepLat, 1) {
			return clusterEstimate{reason: "unroutable group"}
		}
		if p.ptens > 1 {
			tn += float64(p.steps) * gp.stepLat
		}
	}
	for s := 0; s+1 < p.ppipe; s++ {
		path, ok := router.Route(first[s].members[0], first[s+1].members[0], p.actBytes)
		if !ok {
			return clusterEstimate{reason: "unroutable pipeline hand-off"}
		}
		tn += path.TransferTime(g, p.actBytes)
	}
	est.tn = tn
	return est
}

// bestGroupLatency is the perturbation objective: the cheapest per-step
// latency achievable for the group across switches and schemes.
func bestGroupLatency(g *topology.Graph, r collective.Router, group []topology.NodeID, msgBytes int64, hetero bool) float64 {
	sw, _, ok := collective.BestAggSwitch(g, r, group, msgBytes)
	if !ok {
		sw = -1
	}
	_, lat := chooseGroupScheme(g, r, group, sw, msgBytes, hetero)
	return lat
}

// chooseGroupScheme wraps collective.ChooseScheme, degrading to ring when no
// switch is available.
func chooseGroupScheme(g *topology.Graph, r collective.Router, group []topology.NodeID, sw topology.NodeID, msgBytes int64, hetero bool) (collective.Scheme, float64) {
	if sw < 0 {
		return collective.SchemeRing, collective.RingStepTime(g, r, group, msgBytes)
	}
	return collective.ChooseScheme(g, r, group, sw, msgBytes, hetero)
}

// estimateKVTransfer evaluates Eq. 14-15: KV caches migrate pairwise from
// prefill stages to decode stages in parallel; the slowest pair bounds T_f.
func estimateKVTransfer(in *Inputs, router *collective.StaticRouter, pre, dec *serving.InstanceSpec) float64 {
	g := in.Graph
	total := in.Model.KVTransferBytes(in.Workload.Kin)
	pp := pre.Ppipe()
	ppD := dec.Ppipe()
	share := total / int64(pp)
	var worst float64
	for s := 0; s < pp; s++ {
		from := pre.Stages[s][0]
		to := dec.Stages[s*ppD/pp][0]
		if from == to {
			continue
		}
		path, ok := router.Route(from, to, share)
		if !ok {
			return math.Inf(1)
		}
		if t := path.TransferTime(g, share); t > worst {
			worst = t
		}
	}
	return worst
}
