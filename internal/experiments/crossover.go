package experiments

import (
	"fmt"
	"math"

	"heroserve/internal/collective"
	"heroserve/internal/topology"
)

// CrossoverPoint records, for one group shape, where the scheme preference
// flips between ring and INA-family aggregation as messages grow.
type CrossoverPoint struct {
	GroupDesc string
	Sizes     []int64
	RingUS    []float64
	INAUS     []float64
	HeteroUS  []float64
	// CrossoverBytes is the smallest swept size at which ring becomes the
	// cheapest scheme (0 when INA/hetero win everywhere, -1 when ring wins
	// everywhere).
	CrossoverBytes int64
}

// CrossoverData sweeps message sizes for several group shapes on the
// testbed and records the per-step analytic latency of each scheme — the
// quantitative basis of the planner's alpha/beta selection (Eq. 7): small
// synchronization steps (decode) favour INA's two hops; huge steps (long
// prefill batches) amortize ring's 2(P-1) rounds.
func CrossoverData() []CrossoverPoint {
	g := topology.Testbed()
	r := collective.NewStaticRouter(g)
	sizes := []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20}

	groups := []struct {
		desc    string
		members []topology.NodeID
	}{
		{"4 GPUs, 1 server (NVLink only)", g.ServerGPUs(0)},
		{"8 GPUs, 2 servers", append(append([]topology.NodeID{}, g.ServerGPUs(0)...), g.ServerGPUs(1)...)},
		{"16 GPUs, 4 servers", g.GPUs()},
	}

	var out []CrossoverPoint
	for _, grp := range groups {
		prepared := collective.NewGroup(g, grp.members)
		sw, _, ok := collective.BestAggSwitch(g, r, prepared, 1<<20)
		if !ok {
			continue
		}
		p := CrossoverPoint{GroupDesc: grp.desc, Sizes: sizes, CrossoverBytes: -1}
		foundCross := false
		for _, size := range sizes {
			ring := collective.RingStepTime(g, r, prepared, size)
			ina := collective.INAStepTime(g, r, prepared, sw, size)
			het := collective.HeteroStepTime(g, r, prepared, sw, size)
			p.RingUS = append(p.RingUS, ring*1e6)
			p.INAUS = append(p.INAUS, ina*1e6)
			p.HeteroUS = append(p.HeteroUS, het*1e6)
			if !foundCross && ring <= math.Min(ina, het) {
				p.CrossoverBytes = size
				foundCross = true
			}
		}
		if !foundCross {
			p.CrossoverBytes = 0
		}
		out = append(out, p)
	}
	return out
}

// Crossover renders the scheme-crossover study.
func Crossover(Env) (*Report, error) {
	data := CrossoverData()
	r := &Report{Name: "Scheme crossover — per-step latency of ring vs INA vs hetero by message size"}
	for _, p := range data {
		t := r.AddTable(p.GroupDesc, "size", "ring (us)", "ina-sync (us)", "hetero (us)", "cheapest")
		for i, size := range p.Sizes {
			best := "ring"
			m := p.RingUS[i]
			if p.INAUS[i] < m {
				best, m = "ina-sync", p.INAUS[i]
			}
			if p.HeteroUS[i] < m {
				best = "hetero"
			}
			t.AddRow(byteSize(size), fmt.Sprintf("%.1f", p.RingUS[i]),
				fmt.Sprintf("%.1f", p.INAUS[i]), fmt.Sprintf("%.1f", p.HeteroUS[i]), best)
		}
		switch p.CrossoverBytes {
		case 0:
			r.AddNote("%s: INA/hetero cheapest at every swept size", p.GroupDesc)
		case -1:
			r.AddNote("%s: ring cheapest at every swept size", p.GroupDesc)
		default:
			r.AddNote("%s: ring takes over at %s", p.GroupDesc, byteSize(p.CrossoverBytes))
		}
	}
	r.AddNote("this is the quantitative basis of Eq. 7's alpha/beta selection: decode steps (small) want INA, long-prefill steps (large) can prefer ring")
	return r, nil
}
