package planner

import (
	"fmt"
	"math/rand"
	"slices"

	"heroserve/internal/topology"
)

// DistFunc returns the (symmetric) latency distance between two GPU nodes.
type DistFunc func(a, b topology.NodeID) float64

// GroupGPUs partitions gpus into k groups of exactly m members each (gpus
// must hold at least k*m distinct ids; the surplus is left unused),
// minimizing intra-group pairwise distance. This is the k-means-constrained
// step of Alg. 2 line 4, implemented as greedy nearest-neighbour seeding:
// the perturbation pass (Alg. 2 lines 12-22) refines it afterwards, which
// is exactly the paper's pipeline. The result is deterministic given the
// input order.
func GroupGPUs(dist DistFunc, gpus []topology.NodeID, k, m int) ([][]topology.NodeID, error) {
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
	groups := make([][]topology.NodeID, 0, k)
	for gi := 0; gi < k; gi++ {
		// Seed with the lowest unused id, then greedily add the nearest
		// unused neighbours.
		seed := slices.Index(used, false)
		used[seed] = true
		group := []topology.NodeID{pool[seed]}
		for len(group) < m {
			best := -1
			bestD := 0.0
			for i, cand := range pool {
				if used[i] {
					continue
				}
				// Distance to the group: sum over members (keeps groups
				// compact rather than chained).
				var d float64
				for _, g := range group {
					d += dist(g, cand)
				}
				if best < 0 || d < bestD {
					best, bestD = i, d
				}
			}
			used[best] = true
			group = append(group, pool[best])
		}
		groups = append(groups, group)
	}
	return groups, nil
}

// groupCost is the objective the perturbation minimizes for one group under
// a given evaluation function.
type groupEval func(group []topology.NodeID) float64

// Perturb implements Alg. 2's random-swap refinement: repeatedly pick a
// random pair of groups and a random member from each, swap them, and keep
// the swap if the summed evaluation improves. It stops after maxIters rounds
// without improvement (the paper observes convergence within five) and
// returns the number of improvement rounds performed.
func Perturb(groups [][]topology.NodeID, eval groupEval, maxIters int, rng *rand.Rand) int {
	if len(groups) < 2 || maxIters <= 0 {
		return 0
	}
	costs := make([]float64, len(groups))
	for i, g := range groups {
		costs[i] = eval(g)
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
			groups[i][mi], groups[j][mj] = groups[j][mj], groups[i][mi]
			ci, cj := eval(groups[i]), eval(groups[j])
			if ci+cj < costs[i]+costs[j]-1e-15 {
				costs[i], costs[j] = ci, cj
				improved = true
			} else {
				groups[i][mi], groups[j][mj] = groups[j][mj], groups[i][mi]
			}
		}
		iters++
		if !improved {
			break
		}
	}
	return iters
}
