package experiments

import (
	"fmt"

	"heroserve/internal/collective"
	"heroserve/internal/netsim"
	"heroserve/internal/sim"
	"heroserve/internal/topology"
)

// ExtPCIe validates the paper's first future-work item (§VII): on PCIe-only
// servers, NUMA-aware pre-reduction (per-socket leaders) avoids the derated
// cross-socket links. It reports analytic and simulated all-reduce times for
// naive vs NUMA-aware heterogeneous aggregation on an L40 pod.
func ExtPCIe(Env) (*Report, error) {
	r := &Report{Name: "Extension §VII-a — PCIe intra-server communication with NUMA awareness"}
	t := r.AddTable("8x L40 (2 servers, 2 NUMA domains each), hetero all-reduce",
		"message", "naive analytic", "NUMA-aware analytic", "naive sim", "NUMA-aware sim", "sim gain")

	build := func() *topology.Graph {
		return topology.Pod(topology.PodConfig{
			Servers: 2,
			Server:  topology.L40Server(),
			Tracks:  1, ServersPerGroup: 2, CoreSwitches: 1,
		})
	}
	for _, size := range []int64{1 << 20, 8 << 20, 64 << 20} {
		g := build()
		router := collective.NewStaticRouter(g)
		group := g.GPUs()
		sw, _, ok := collective.BestAggSwitch(g, router, group, size)
		if !ok {
			return nil, fmt.Errorf("ext-pcie: no aggregation switch")
		}
		naiveA := collective.HeteroStepTime(g, router, group, sw, size)
		awareA := collective.HeteroNUMAStepTime(g, router, group, sw, size)

		simulate := func(numa bool) (sim.Time, error) {
			g := build()
			eng := sim.NewEngine()
			net := netsim.New(g, eng)
			c := collective.NewComm(net, collective.NewStaticRouter(g))
			var at sim.Time = -1
			done := func() { at = eng.Now() }
			if numa {
				c.HeteroNUMAAllReduce(g.GPUs(), sw, size, 4, done)
			} else {
				c.HeteroAllReduce(g.GPUs(), sw, size, 4, done)
			}
			eng.Run()
			if at < 0 {
				return 0, fmt.Errorf("ext-pcie: all-reduce stalled")
			}
			return at, nil
		}
		naiveS, err := simulate(false)
		if err != nil {
			return nil, err
		}
		awareS, err := simulate(true)
		if err != nil {
			return nil, err
		}
		t.AddRow(byteSize(size), fmtUS(naiveA), fmtUS(awareA), fmtUS(naiveS), fmtUS(awareS),
			fmtPct(1-awareS/naiveS))
	}
	r.AddNote("§VII: \"for scenarios without NVLink, we will investigate how to leverage high-performance PCIe bandwidth ... while avoiding performance degradation due to cross-NUMA effects\" — per-socket pre-reduction keeps intra-server traffic off the %.0f%%-derated cross-NUMA links", topology.CrossNUMAFactor*100)
	return r, nil
}

// The ext-scale experiment (the §VII-b scaling study) lives in scalestudy.go:
// it sweeps pluggable ScalePolicy implementations across workloads and scores
// them off the telemetry registry.
