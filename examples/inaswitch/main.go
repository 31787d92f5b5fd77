// INA switch: drive the programmable-switch substrate directly. This
// example (1) pushes an aggregation round through the simulated Tofino data
// plane packet by packet, showing the aggregator-slot state machine, and (2)
// reproduces the paper's Fig. 2 microbenchmark: a 1 MB all-reduce over the
// homogeneous plan (aggregate at the core switch) versus HeroServe's
// heterogeneous plan (NVLink pre-reduction + access-switch aggregation),
// then shows the online scheduler steering between policies as links load
// up.
package main

import (
	"fmt"

	"heroserve/internal/collective"
	"heroserve/internal/netsim"
	"heroserve/internal/scheduler"
	"heroserve/internal/sim"
	"heroserve/internal/switchsim"
	"heroserve/internal/topology"
)

func main() {
	dataPlaneDemo()
	fig2Demo()
	schedulerDemo()
}

// dataPlaneDemo exercises the switch data plane at packet granularity.
func dataPlaneDemo() {
	fmt.Println("== switch data plane: one SwitchML aggregation round ==")
	sw := switchsim.New("tofino0", 512, 256)
	granted, err := sw.RegisterJob(1, switchsim.ModeSync, 3, 128)
	if err != nil {
		panic(err)
	}
	fmt.Printf("registered job 1: fan-in 3, granted %d aggregator slots\n", granted)

	grads := [][]float64{
		{0.25, -1.5, 3.0},
		{0.50, 0.25, -1.0},
		{0.25, 0.25, 1.0},
	}
	for worker, g := range grads {
		verdict, out := sw.Ingest(switchsim.Packet{
			Job: 1, Seq: 0, Worker: worker, Values: switchsim.QuantizeVector(g),
		})
		fmt.Printf("  worker %d contribution -> %v", worker, verdict)
		if verdict == switchsim.VerdictComplete {
			fmt.Printf("  aggregate = %v", switchsim.DequantizeVector(out))
		}
		fmt.Println()
	}
	c := sw.Counters()
	fmt.Printf("counters: packets=%d aggregates=%d drops=%d\n\n", c.PacketsIn, c.Aggregates, c.Drops)
}

// fig2Topology builds the Fig. 2 network (see internal/experiments for the
// measured version).
func fig2Topology() (*topology.Graph, []topology.NodeID, topology.NodeID, topology.NodeID) {
	g := topology.NewGraph()
	gn1 := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 0, GPUType: "A100", Name: "GN1"})
	gn2 := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 0, GPUType: "A100", Name: "GN2"})
	gn3 := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 1, GPUType: "A100", Name: "GN3"})
	s2 := g.AddNode(topology.Node{Kind: topology.KindAccessSwitch, INASlots: 512, Name: "S2"})
	s3 := g.AddNode(topology.Node{Kind: topology.KindAccessSwitch, INASlots: 512, Name: "S3"})
	s1 := g.AddNode(topology.Node{Kind: topology.KindCoreSwitch, INASlots: 512, Name: "S1"})
	g.AddEdge(gn1, gn2, topology.LinkNVLink, topology.NVLinkA100, topology.NVLinkHopLatency)
	g.AddEdge(gn1, s2, topology.LinkEthernet, topology.Ethernet100G, topology.EthernetHopLatency)
	g.AddEdge(gn2, s2, topology.LinkEthernet, topology.Ethernet100G, topology.EthernetHopLatency)
	g.AddEdge(gn3, s3, topology.LinkEthernet, topology.Ethernet100G, topology.EthernetHopLatency)
	g.AddEdge(gn3, s2, topology.LinkEthernet, topology.Ethernet100G, topology.EthernetHopLatency)
	g.AddEdge(s2, s1, topology.LinkTrunk, topology.Ethernet100G, topology.TrunkHopLatency)
	g.AddEdge(s3, s1, topology.LinkTrunk, topology.Ethernet100G, topology.TrunkHopLatency)
	return g, []topology.NodeID{gn1, gn2, gn3}, s1, s2
}

// fig2Demo times the two aggregation plans on the flow simulator.
func fig2Demo() {
	fmt.Println("== Fig. 2: homogeneous vs heterogeneous aggregation, 1 MiB ==")
	const size = 1 << 20
	measure := func(label string, run func(c *collective.Comm, group *collective.Group, core, access topology.NodeID, done func())) {
		g, group, coreSw, accessSw := fig2Topology()
		eng := sim.NewEngine()
		net := netsim.New(g, eng)
		c := collective.NewComm(net, collective.NewStaticRouter(g))
		var at sim.Time
		run(c, collective.NewGroup(g, group), coreSw, accessSw, func() { at = eng.Now() })
		eng.Run()
		fmt.Printf("  %-32s %7.1f us\n", label, at*1e6)
	}
	measure("homogeneous (INA at core S1)", func(c *collective.Comm, group *collective.Group, core, _ topology.NodeID, done func()) {
		c.INAAllReduce(group, core, size, 1, switchsim.ModeSync, done)
	})
	measure("heterogeneous (NVLink + S2)", func(c *collective.Comm, group *collective.Group, _, access topology.NodeID, done func()) {
		c.HeteroAllReduce(group, access, size, 1, done)
	})
	fmt.Println()
}

// schedulerDemo shows the policy cost table reacting to link load.
func schedulerDemo() {
	fmt.Println("== online scheduler: policy selection under load ==")
	g, group, _, _ := fig2Topology()
	eng := sim.NewEngine()
	net := netsim.New(g, eng)
	router := collective.NewStaticRouter(g)
	policies := scheduler.BuildPolicies(g, router, group, 1<<20, 2, true)
	table := scheduler.NewTable(g, group, policies, scheduler.DefaultConfig())
	fmt.Printf("built %d candidate policies:\n", len(policies))
	for i, p := range policies {
		fmt.Printf("  [%d] %-18s scheme=%s links=%d\n", i, p.Label, p.Scheme, len(p.Edges))
	}

	pick := func(note string) {
		idx := table.Select(1 << 20)
		fmt.Printf("  %-34s -> %s\n", note, policies[idx].Label)
	}
	pick("idle fabric")
	// Saturate GN2's NIC: the direct-INA policy needs it, while the
	// heterogeneous policy pre-reduces GN2's share over NVLink to GN1 and
	// avoids the hot link. Refresh the table from live telemetry, as the
	// central controller would.
	var hot topology.EdgeID
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(topology.EdgeID(i))
		if e.Kind == topology.LinkEthernet && (e.A == group[1] || e.B == group[1]) {
			hot = topology.EdgeID(i)
		}
	}
	uplink := topology.Path{Nodes: []topology.NodeID{group[1], g.Edge(hot).Other(group[1])}, Edges: []topology.EdgeID{hot}}
	net.StartGroup([]topology.Path{uplink}, 1<<30, 0, nil)
	table.RefreshCost(func(e topology.EdgeID) float64 { return net.EdgeUtilization(e) })
	table.RefreshPenalty(func(e topology.EdgeID) float64 { return net.EdgeUtilization(e) })
	pick("GN2 uplink saturated")
	eng.Run()
}
