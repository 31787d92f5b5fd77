package collective

import (
	"testing"

	"heroserve/internal/netsim"
	"heroserve/internal/sim"
	"heroserve/internal/topology"
)

// pcieTestbed builds two L40 PCIe servers (2 NUMA domains each) behind one
// switch — the §VII future-work configuration.
func pcieTestbed() *topology.Graph {
	return topology.Pod(topology.PodConfig{
		Servers: 2,
		Server:  topology.L40Server(),
		Tracks:  1, ServersPerGroup: 2, CoreSwitches: 1,
	})
}

func TestNUMALeadersPartitionsByDomain(t *testing.T) {
	g := pcieTestbed()
	group := g.GPUs() // 8 GPUs, 2 servers x 2 domains x 2 GPUs
	parts := numaLeaders(g, group)
	if len(parts) != 4 {
		t.Fatalf("NUMA partitions = %d, want 4 (2 servers x 2 domains)", len(parts))
	}
	for _, members := range parts {
		if len(members) != 2 {
			t.Fatalf("partition size = %d, want 2", len(members))
		}
		a, b := g.Node(members[0]), g.Node(members[1])
		if a.Server != b.Server || a.NUMA != b.NUMA {
			t.Error("partition crosses server or NUMA domain")
		}
	}
	// serverLeaders on the same group: 2 partitions of 4.
	sl := serverLeaders(g, group)
	if len(sl) != 2 || len(sl[0]) != 4 {
		t.Fatalf("serverLeaders = %d partitions", len(sl))
	}
	// On NVLink servers numaLeaders degenerates to serverLeaders.
	tb := topology.Testbed()
	if got := len(numaLeaders(tb, tb.GPUs())); got != len(serverLeaders(tb, tb.GPUs())) {
		t.Errorf("NVLink numaLeaders = %d partitions", got)
	}
}

func TestCrossNUMAPCIeDerated(t *testing.T) {
	g := pcieTestbed()
	var intra, cross int
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(topology.EdgeID(i))
		if e.Kind != topology.LinkPCIe {
			continue
		}
		na, nb := g.Node(e.A), g.Node(e.B)
		if na.NUMA == nb.NUMA {
			intra++
			if e.Capacity != topology.PCIe4x16 {
				t.Errorf("intra-NUMA PCIe capacity %g", e.Capacity)
			}
		} else {
			cross++
			if e.Capacity != topology.PCIe4x16*topology.CrossNUMAFactor {
				t.Errorf("cross-NUMA PCIe capacity %g not derated", e.Capacity)
			}
		}
	}
	if intra == 0 || cross == 0 {
		t.Fatalf("edge mix intra=%d cross=%d", intra, cross)
	}
}

func TestNUMAAwareHeteroBeatsNaiveOnPCIe(t *testing.T) {
	// Analytic: NUMA-aware pre-reduction avoids the derated cross-socket
	// links, so its step time must be lower on PCIe servers.
	g := pcieTestbed()
	r := NewStaticRouter(g)
	group := NewGroup(g, g.GPUs())
	sw, _, ok := BestAggSwitch(g, r, group, 8<<20)
	if !ok {
		t.Fatal("no switch")
	}
	naive := HeteroStepTime(g, r, group, sw, 8<<20)
	aware := HeteroNUMAStepTime(g, r, group, sw, 8<<20)
	if aware >= naive {
		t.Errorf("NUMA-aware %g should beat naive %g on PCIe", aware, naive)
	}

	// Simulated: same ordering end to end.
	simTime := func(run func(c *Comm, done func())) sim.Time {
		g := pcieTestbed()
		eng := sim.NewEngine()
		net := netsim.New(g, eng)
		c := NewComm(net, NewStaticRouter(g))
		var at sim.Time = -1
		run(c, func() { at = eng.Now() })
		eng.Run()
		if at < 0 {
			t.Fatal("all-reduce never completed")
		}
		return at
	}
	tNaive := simTime(func(c *Comm, done func()) {
		c.HeteroAllReduce(NewGroup(g, g.GPUs()), sw, 8<<20, 4, done)
	})
	tAware := simTime(func(c *Comm, done func()) {
		c.HeteroNUMAAllReduce(NewGroup(g, g.GPUs()), sw, 8<<20, 4, done)
	})
	if tAware >= tNaive {
		t.Errorf("simulated NUMA-aware %g should beat naive %g", tAware, tNaive)
	}
}

func TestNUMAVariantIdenticalOnNVLink(t *testing.T) {
	g := topology.Testbed()
	r := NewStaticRouter(g)
	group := NewGroup(g, g.GPUs())
	sw := g.Switches()[0]
	naive := HeteroStepTime(g, r, group, sw, 1<<20)
	aware := HeteroNUMAStepTime(g, r, group, sw, 1<<20)
	if naive != aware {
		t.Errorf("NVLink servers: %g vs %g, want identical", naive, aware)
	}
}
