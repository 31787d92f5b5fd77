package experiments

import (
	"heroserve/internal/collective"
	"heroserve/internal/netsim"
	"heroserve/internal/sim"
	"heroserve/internal/switchsim"
	"heroserve/internal/topology"
)

// Fig2Result holds the Fig. 2 comparison: aggregation delay of a 3-GPU
// all-reduce (two GPUs sharing a server, one remote) under the homogeneous
// plan (aggregate at the core switch, every GPU sends over Ethernet) and the
// heterogeneous plan (NVLink pre-reduction to the local leader, aggregate at
// the adjacent access switch).
type Fig2Result struct {
	MsgBytes int64

	// Analytic one-way estimates matching the paper's worked numbers
	// (~160 us homogeneous vs ~90 us heterogeneous for 1 MB).
	HomoOneWayS   float64
	HeteroOneWayS float64

	// Simulated full all-reduce times on the flow-level simulator + switch
	// data plane.
	HomoSimS   float64
	HeteroSimS float64

	ReductionAnalytic float64
	ReductionSim      float64
}

// fig2Topology reproduces the Fig. 2 network: server A = {GN1, GN2} with
// NVLink and NICs on access switch S2; server B = {GN3} with NICs on access
// switch S3 and a cross-connect to S2; core switch S1 joins the access
// layer.
func fig2Topology() (g *topology.Graph, group []topology.NodeID, core, access topology.NodeID) {
	g = topology.NewGraph()
	gn1 := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 0, GPUType: "A100"})
	gn2 := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 0, GPUType: "A100"})
	gn3 := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 1, GPUType: "A100"})
	s2 := g.AddNode(topology.Node{Kind: topology.KindAccessSwitch, INASlots: topology.DefaultINASlots})
	s3 := g.AddNode(topology.Node{Kind: topology.KindAccessSwitch, INASlots: topology.DefaultINASlots})
	s1 := g.AddNode(topology.Node{Kind: topology.KindCoreSwitch, INASlots: topology.DefaultINASlots})
	g.AddEdge(gn1, gn2, topology.LinkNVLink, topology.NVLinkA100, topology.NVLinkHopLatency)
	g.AddEdge(gn1, s2, topology.LinkEthernet, topology.Ethernet100G, topology.EthernetHopLatency)
	g.AddEdge(gn2, s2, topology.LinkEthernet, topology.Ethernet100G, topology.EthernetHopLatency)
	g.AddEdge(gn3, s3, topology.LinkEthernet, topology.Ethernet100G, topology.EthernetHopLatency)
	g.AddEdge(gn3, s2, topology.LinkEthernet, topology.Ethernet100G, topology.EthernetHopLatency)
	g.AddEdge(s2, s1, topology.LinkTrunk, topology.Ethernet100G, topology.TrunkHopLatency)
	g.AddEdge(s3, s1, topology.LinkTrunk, topology.Ethernet100G, topology.TrunkHopLatency)
	return g, []topology.NodeID{gn1, gn2, gn3}, s1, s2
}

// Fig2Data runs the comparison for the given message size.
func Fig2Data(msgBytes int64) Fig2Result {
	res := Fig2Result{MsgBytes: msgBytes}

	// Analytic one-way collection latencies (the paper counts the
	// collection leg: "two hops of Ethernet links ... approximately 160 us").
	{
		g, group, coreSw, accessSw := fig2Topology()
		r := collective.NewStaticRouter(g)
		// Homogeneous: the worst member crosses access + core Ethernet hops.
		grp := collective.NewGroup(g, group)
		res.HomoOneWayS = (collective.INAStepTime(g, r, grp, coreSw, msgBytes) - switchsim.AggLatency) / 2
		res.HeteroOneWayS = (collective.HeteroStepTime(g, r, grp, accessSw, msgBytes) - switchsim.AggLatency) / 2
		res.ReductionAnalytic = 1 - res.HeteroOneWayS/res.HomoOneWayS
	}

	// Simulated full all-reduces (collection + aggregation + distribution).
	simulate := func(run func(c *collective.Comm, done func())) float64 {
		g, _, _, _ := fig2Topology()
		eng := sim.NewEngine()
		net := netsim.New(g, eng)
		c := collective.NewComm(net, collective.NewStaticRouter(g))
		var at sim.Time = -1
		run(c, func() { at = eng.Now() })
		eng.Run()
		return at
	}
	{
		g, group, coreSw, _ := fig2Topology()
		grp := collective.NewGroup(g, group)
		res.HomoSimS = simulate(func(c *collective.Comm, done func()) {
			c.INAAllReduce(grp, coreSw, msgBytes, 1, switchsim.ModeSync, done)
		})
	}
	{
		g, group, _, accessSw := fig2Topology()
		grp := collective.NewGroup(g, group)
		res.HeteroSimS = simulate(func(c *collective.Comm, done func()) {
			c.HeteroAllReduce(grp, accessSw, msgBytes, 1, done)
		})
	}
	res.ReductionSim = 1 - res.HeteroSimS/res.HomoSimS
	return res
}

// Fig2 renders the comparison for 1 MB (the paper's worked example) plus two
// neighbouring sizes. It runs no serving simulation, so the environment is
// unused.
func Fig2(Env) (*Report, error) {
	r := &Report{Name: "Fig. 2 — INA over homogeneous vs heterogeneous networks"}
	t := r.AddTable("aggregation delay (3 GPUs: 2 co-located + 1 remote)",
		"message", "homo 1-way", "hetero 1-way", "reduction", "homo sim all-reduce", "hetero sim all-reduce", "sim reduction")
	for _, size := range []int64{256 << 10, 1 << 20, 4 << 20} {
		d := Fig2Data(size)
		t.AddRow(
			byteSize(size),
			fmtUS(d.HomoOneWayS), fmtUS(d.HeteroOneWayS), fmtPct(d.ReductionAnalytic),
			fmtUS(d.HomoSimS), fmtUS(d.HeteroSimS), fmtPct(d.ReductionSim),
		)
	}
	r.AddNote("paper's worked example: 1 MB takes ~160 us over two Ethernet hops vs ~90 us with NVLink forwarding (~43%% lower)")
	return r, nil
}
