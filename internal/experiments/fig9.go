package experiments

import (
	"fmt"

	"heroserve/internal/collective"
	"heroserve/internal/netsim"
	"heroserve/internal/serving"
	"heroserve/internal/sim"
	"heroserve/internal/switchsim"
	"heroserve/internal/topology"
)

// Fig9Point is one (system, message size) cell of Fig. 9: sustained
// in-network aggregation throughput.
type Fig9Point struct {
	System     SystemKind
	MsgBytes   int64
	Throughput float64 // aggregated payload bytes per second
}

// fig9Rounds is how many back-to-back all-reduces each group performs per
// measurement.
const fig9Rounds = 8

// Fig9Data measures aggregation throughput on a 2tracks pod: two
// tensor-parallel groups (16 GPUs across two servers each) run back-to-back
// all-reduces of the given size under bursty background traffic, using each
// system's communication scheme. Throughput = total aggregated payload /
// makespan.
func Fig9Data(env Env) ([]Fig9Point, error) {
	sizes := []int64{4 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20}
	rounds := fig9Rounds
	if env.Scale == Full {
		rounds *= 3
	}

	trials := 3
	var out []Fig9Point
	for _, size := range sizes {
		for _, sysKind := range AllSystems {
			var sumTput float64
			for trial := 0; trial < trials; trial++ {
				tput, err := fig9Trial(sysKind, size, rounds, env.Seed+int64(trial)*97)
				if err != nil {
					return nil, err
				}
				sumTput += tput
			}
			out = append(out, Fig9Point{System: sysKind, MsgBytes: size, Throughput: sumTput / float64(trials)})
		}
	}
	return out, nil
}

// fig9Trial measures one (system, size) cell under one background draw.
func fig9Trial(sysKind SystemKind, size int64, rounds int, seed int64) (float64, error) {
	g := topology.Pod2Tracks(6)
	eng := sim.NewEngine()
	net := netsim.New(g, eng)
	comm := collective.NewComm(net, collective.NewStaticRouter(g))

	// Two groups, each spanning two 8-GPU servers.
	groups := [][]topology.NodeID{
		append(append([]topology.NodeID{}, g.ServerGPUs(0)...), g.ServerGPUs(1)...),
		append(append([]topology.NodeID{}, g.ServerGPUs(2)...), g.ServerGPUs(3)...),
	}
	switches := make([]topology.NodeID, len(groups))
	router := collective.NewStaticRouter(g)
	for i, grp := range groups {
		sw, _, ok := collective.BestAggSwitch(g, router, grp, size)
		if !ok {
			return 0, fmt.Errorf("fig9: no aggregation switch for group %d", i)
		}
		switches[i] = sw
	}

	// Sustained bursty background traffic (the condition under which
	// the paper measures aggregation throughput): elephant lanes
	// respawn back-to-back transfers between random GPU pairs. The
	// seed is shared across systems so all face the same background.
	serving.LaunchElephants(net, router, 12, 256<<20, 8.0, seed+7)

	var finished sim.Time
	done := 0
	runChain := func(gi int) {
		var step func(round int)
		step = func(round int) {
			if round == rounds {
				done++
				if done == len(groups) {
					finished = eng.Now()
				}
				return
			}
			next := func() { step(round + 1) }
			grp, sw := groups[gi], switches[gi]
			switch sysKind {
			case HeroServe:
				comm.HeteroAllReduce(grp, sw, size, 1, next)
			case DSSwitchMLK:
				comm.INAAllReduce(grp, sw, size, 1, switchsim.ModeSync, next)
			case DSATPK:
				comm.INAAllReduce(grp, sw, size, 1, switchsim.ModeAsync, next)
			case DistServeK:
				comm.RingAllReduce(grp, size, 1, next)
			}
		}
		step(0)
	}
	for gi := range groups {
		runChain(gi)
	}
	eng.Run()
	if finished <= 0 {
		return 0, fmt.Errorf("fig9: %v chains never finished", sysKind)
	}
	total := float64(int64(rounds*len(groups)) * size)
	return total / finished, nil
}

// Fig9 renders the throughput comparison.
func Fig9(env Env) (*Report, error) {
	data, err := Fig9Data(env)
	if err != nil {
		return nil, err
	}
	return Fig9Render(data), nil
}

// Fig9Render builds the report from already-computed measurements.
func Fig9Render(data []Fig9Point) *Report {
	r := &Report{Name: "Fig. 9 — In-network aggregation throughput vs message size (2tracks, bursty background)"}
	bySystem := map[SystemKind]map[int64]float64{}
	var sizes []int64
	seen := map[int64]bool{}
	for _, p := range data {
		if bySystem[p.System] == nil {
			bySystem[p.System] = map[int64]float64{}
		}
		bySystem[p.System][p.MsgBytes] = p.Throughput
		if !seen[p.MsgBytes] {
			seen[p.MsgBytes] = true
			sizes = append(sizes, p.MsgBytes)
		}
	}
	cols := []string{"system"}
	for _, s := range sizes {
		cols = append(cols, byteSize(s))
	}
	t := r.AddTable("aggregation throughput (GB/s)", cols...)
	for _, k := range AllSystems {
		row := []string{k.String()}
		for _, s := range sizes {
			row = append(row, fmt.Sprintf("%.2f", bySystem[k][s]/1e9))
		}
		t.AddRow(row...)
	}
	r.AddNote("paper (2tracks): HeroServe improves throughput by 71.7%%, 26%%, and 20.1%% over DistServe, DS-ATP, and DS-SwitchML")
	return r
}
