package planner

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"heroserve/internal/collective"
	"heroserve/internal/topology"
)

// refGroupGPUs is GroupGPUs with each candidate's distance to the growing
// group summed afresh over the members, the form the running sums must
// match bit for bit.
func refGroupGPUs(dist func(a, b topology.NodeID) float64, gpus []topology.NodeID, k, m int) [][]topology.NodeID {
	pool := slices.Clone(gpus)
	slices.Sort(pool)
	pool = slices.Compact(pool)
	used := make([]bool, len(pool))
	var groups [][]topology.NodeID
	for gi := 0; gi < k; gi++ {
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
	return groups
}

// TestGroupGPUsMatchesNestedSums: the running sums group exactly as the
// nested sums do, on random pools (duplicates included) of the testbed and
// two pods, whose symmetric fabrics make equal distances common.
func TestGroupGPUsMatchesNestedSums(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, c := range []struct {
		name string
		g    *topology.Graph
	}{
		{"testbed", topology.Testbed()}, {"pod8-12", topology.Pod8Tracks(12)}, {"pod2-12", topology.Pod2Tracks(12)},
	} {
		name, g := c.name, c.g
		gpus := g.GPUs()
		working := append(append([]topology.NodeID{}, gpus...), g.Switches()...)
		m := g.NewTrees(working, 3<<20, collective.FabricAllow(g)).Matrix(working)
		for trial := 0; trial < 20; trial++ {
			pool := make([]topology.NodeID, 2+rng.Intn(len(gpus)))
			for i := range pool {
				pool[i] = gpus[rng.Intn(len(gpus))]
			}
			sorted := slices.Clone(pool)
			slices.Sort(sorted)
			distinct := len(slices.Compact(sorted))
			size := 1 + rng.Intn(min(8, distinct))
			k := 1 + rng.Intn(distinct/size)
			got, err := GroupGPUs(m.Row, pool, k, size)
			if err != nil {
				t.Fatal(err)
			}
			if want := refGroupGPUs(m.Dist, pool, k, size); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("%s: %d x %d of %v:\n got %v\nwant %v", name, k, size, pool, got, want)
			}
		}
	}
}

// TestWarmPerturbSwapAllocs pins a warm trial swap at zero allocations: the
// two touched groups are re-prepared into the spare groups' buffers, and
// the objective (switch scan and scheme choice) routes into stack buffers
// off the role's prepared trees.
func TestWarmPerturbSwapAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		in   Inputs
	}{
		{"testbed", testbedInputs(t)},
		{"pod8-12", pod8Inputs(12)},
	} {
		g := c.in.Graph
		gpus := g.GPUs()
		msg := c.in.Model.SyncBytes(c.in.Workload.Kin)
		universe := append(append([]topology.NodeID{}, gpus...), g.Switches()...)
		matrix := g.NewTrees(universe, msg, collective.FabricAllow(g)).Matrix(universe)
		router := collective.MatrixRouter{M: matrix}
		eval := func(grp *collective.Group) float64 { return bestGroupLatency(g, router, grp, msg, true) }
		rng := rand.New(rand.NewSource(5))
		for _, size := range []int{2, 4, 8, 16} {
			if 2*size > len(gpus) {
				continue
			}
			t.Run(fmt.Sprintf("%s/tens=%d", c.name, size), func(t *testing.T) {
				groups, err := GroupGPUs(matrix.Row, gpus, len(gpus)/size, size)
				if err != nil {
					t.Fatal(err)
				}
				p := newPerturbation(g, groups, eval)
				for trial := 0; trial < 20; trial++ {
					i, j := rng.Intn(len(groups)), rng.Intn(len(groups)-1)
					if j >= i {
						j++
					}
					mi, mj := rng.Intn(size), rng.Intn(size)
					if allocs := testing.AllocsPerRun(5, func() { p.try(i, j, mi, mj) }); allocs != 0 {
						t.Fatalf("swap of group %d member %d with group %d member %d: %.1f allocations, want 0", i, mi, j, mj, allocs)
					}
				}
			})
		}
	}
}
