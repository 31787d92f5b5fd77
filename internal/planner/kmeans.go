package planner

import (
	"fmt"
	"math/rand"
	"slices"

	"heroserve/internal/collective"
	"heroserve/internal/topology"
)

// DistRows returns a GPU's row of a symmetric latency distance, indexed by
// node id: row[b] is the distance from a to b for every GPU b being grouped.
type DistRows func(a topology.NodeID) []float64

// GroupGPUs partitions gpus into k groups of exactly m members each (gpus
// must hold at least k*m distinct ids; the surplus is left unused),
// minimizing intra-group pairwise distance. This is the k-means-constrained
// step of Alg. 2 line 4, implemented as greedy nearest-neighbour seeding:
// the perturbation pass (Alg. 2 lines 12-22) refines it afterwards, which
// is exactly the paper's pipeline. The result is deterministic given the
// input order.
func GroupGPUs(dist DistRows, gpus []topology.NodeID, k, m int) ([][]topology.NodeID, error) {
	if k <= 0 || m <= 0 {
		return nil, fmt.Errorf("planner: grouping %d x %d", k, m)
	}
	pool := slices.Clone(gpus)
	slices.Sort(pool)
	pool = slices.Compact(pool) // a duplicated id counts once
	if len(pool) < k*m {
		return nil, fmt.Errorf("planner: %d GPUs cannot form %d groups of %d", len(pool), k, m)
	}
	used := make([]bool, len(pool)) // used[i] marks pool[i] as grouped
	// sums[i] is pool[i]'s distance to the group being grown: the sum over
	// its members, in the order they joined (keeps groups compact rather
	// than chained). Each new member adds its D row to it.
	sums := make([]float64, len(pool))
	groups := make([][]topology.NodeID, 0, k)
	members := make([]topology.NodeID, k*m) // the groups' backing array
	for gi := 0; gi < k; gi++ {
		// Seed with the lowest unused id, then greedily add the nearest
		// unused neighbours.
		seed := slices.Index(used, false)
		used[seed] = true
		group := members[gi*m : gi*m+1 : (gi+1)*m]
		group[0] = pool[seed]
		clear(sums)
		for len(group) < m {
			row := dist(group[len(group)-1])
			best := -1
			for i, cand := range pool {
				if used[i] {
					continue
				}
				sums[i] += row[cand]
				if best < 0 || sums[i] < sums[best] {
					best = i
				}
			}
			used[best] = true
			group = append(group, pool[best])
		}
		groups = append(groups, group)
	}
	return groups, nil
}

// groupEval is the objective the perturbation minimizes for one prepared
// group.
type groupEval func(grp *collective.Group) float64

// Perturb implements Alg. 2's random-swap refinement: repeatedly pick a
// random pair of groups and a random member from each, swap them, and keep
// the swap if the summed evaluation improves. It stops after maxIters rounds
// without improvement (the paper observes convergence within five). It
// returns the groups prepared, slot by slot, and the number of improvement
// rounds performed.
func Perturb(g *topology.Graph, groups [][]topology.NodeID, eval groupEval, maxIters int, rng *rand.Rand) ([]*collective.Group, int) {
	p := newPerturbation(g, groups, eval)
	if len(groups) < 2 || maxIters <= 0 {
		return p.prepared, 0
	}
	iters := 0
	for round := 0; round < maxIters; round++ {
		improved := false
		// A bounded number of random swap attempts per round keeps the
		// refinement cheap on large clusters.
		attempts := 4 * len(groups)
		for a := 0; a < attempts; a++ {
			i := rng.Intn(len(groups))
			j := rng.Intn(len(groups))
			if i == j {
				continue
			}
			mi := rng.Intn(len(groups[i]))
			mj := rng.Intn(len(groups[j]))
			if p.try(i, j, mi, mj) {
				improved = true
			}
		}
		iters++
		if !improved {
			break
		}
	}
	return p.prepared, iters
}

// perturbation is Perturb's state: the groups, each slot's prepared group
// and its cost, and two spare groups. A trial swap re-prepares the two
// touched groups into the spares, and a kept swap trades each spare for
// its slot's group, whose buffers become the next spares, so a warm trial
// allocates nothing beyond what eval does.
type perturbation struct {
	g              *topology.Graph
	groups         [][]topology.NodeID
	eval           groupEval
	prepared       []*collective.Group
	costs          []float64
	spareI, spareJ *collective.Group
}

// newPerturbation prepares and evaluates every group.
func newPerturbation(g *topology.Graph, groups [][]topology.NodeID, eval groupEval) *perturbation {
	p := &perturbation{
		g:        g,
		groups:   groups,
		eval:     eval,
		prepared: make([]*collective.Group, len(groups)),
		costs:    make([]float64, len(groups)),
		spareI:   new(collective.Group),
		spareJ:   new(collective.Group),
	}
	for i, members := range groups {
		p.prepared[i] = collective.NewGroup(g, members)
		p.costs[i] = eval(p.prepared[i])
	}
	return p
}

// try swaps member mi of group i with member mj of group j and keeps the
// swap, reporting true, when it lowers the two groups' summed cost.
func (p *perturbation) try(i, j, mi, mj int) bool {
	gi, gj := p.groups[i], p.groups[j]
	gi[mi], gj[mj] = gj[mj], gi[mi]
	p.spareI.Reset(p.g, gi)
	p.spareJ.Reset(p.g, gj)
	ci, cj := p.eval(p.spareI), p.eval(p.spareJ)
	if ci+cj < p.costs[i]+p.costs[j]-1e-15 {
		p.costs[i], p.costs[j] = ci, cj
		p.prepared[i], p.spareI = p.spareI, p.prepared[i]
		p.prepared[j], p.spareJ = p.spareJ, p.prepared[j]
		return true
	}
	gi[mi], gj[mj] = gj[mj], gi[mi]
	return false
}
