package topology

import (
	"math"
	"strings"
	"testing"
)

func TestTestbedShape(t *testing.T) {
	g := Testbed()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(g.GPUs()); got != 16 {
		t.Errorf("GPUs = %d, want 16 (4 servers x 4)", got)
	}
	if got := len(g.Switches()); got != 2 {
		t.Errorf("switches = %d, want 2", got)
	}
	if got := g.NumServers(); got != 4 {
		t.Errorf("servers = %d, want 4", got)
	}
	// Memory mix: 8 A100 GPUs at 40 GiB, 8 V100 at 32 GiB.
	var a100, v100 int
	for _, id := range g.GPUs() {
		switch n := g.Node(id); n.GPUType {
		case "A100":
			a100++
			if n.MemoryBytes != 40*GiB {
				t.Errorf("A100 memory %d", n.MemoryBytes)
			}
		case "V100":
			v100++
			if n.MemoryBytes != 32*GiB {
				t.Errorf("V100 memory %d", n.MemoryBytes)
			}
		}
	}
	if a100 != 8 || v100 != 8 {
		t.Errorf("GPU mix = %d A100 / %d V100, want 8/8", a100, v100)
	}
}

func TestTestbedWiring(t *testing.T) {
	g := Testbed()
	// Every GPU has exactly one Ethernet uplink and three NVLink peers.
	for _, id := range g.GPUs() {
		var eth, nv int
		for _, eid := range g.Incident(id) {
			switch g.Edge(eid).Kind {
			case LinkEthernet:
				eth++
			case LinkNVLink:
				nv++
			}
		}
		if eth != 1 {
			t.Errorf("GPU %d has %d Ethernet uplinks, want 1", id, eth)
		}
		if nv != 3 {
			t.Errorf("GPU %d has %d NVLink edges, want 3", id, nv)
		}
	}
	// Cross-connection: each server's GPUs reach both switches.
	for s := 0; s < g.NumServers(); s++ {
		seen := map[NodeID]bool{}
		for _, gpu := range g.ServerGPUs(s) {
			for _, eid := range g.Incident(gpu) {
				e := g.Edge(eid)
				if e.Kind == LinkEthernet {
					seen[e.Other(gpu)] = true
				}
			}
		}
		if len(seen) != 2 {
			t.Errorf("server %d uplinks to %d switches, want 2", s, len(seen))
		}
	}
	// All GPUs mutually reachable.
	m := g.NewMatrix(g.GPUs(), 1<<20, nil)
	for _, a := range g.GPUs() {
		for _, b := range g.GPUs() {
			if math.IsInf(m.Dist(a, b), 1) {
				t.Fatalf("GPU %d cannot reach GPU %d", a, b)
			}
		}
	}
}

func TestFig2HopDelays(t *testing.T) {
	// Reproduces the worked example of Fig. 2 directly from the link
	// constants: 1 MB over two Ethernet hops ~ 160 us; 1 NVLink hop plus one
	// Ethernet hop ~ 85-90 us, i.e. roughly 43% lower.
	const size = 1 << 20
	ethHop := float64(size)/Ethernet100G + EthernetHopLatency
	nvHop := float64(size)/NVLinkA100 + NVLinkHopLatency
	homo := 2 * ethHop
	hetero := nvHop + ethHop
	if homo < 150e-6 || homo > 180e-6 {
		t.Errorf("homogeneous 2-hop delay = %g s, want ~160 us", homo)
	}
	if hetero < 75e-6 || hetero > 95e-6 {
		t.Errorf("heterogeneous delay = %g s, want ~90 us", hetero)
	}
	reduction := 1 - hetero/homo
	if reduction < 0.38 || reduction < 0 {
		t.Errorf("reduction = %.1f%%, want ~43%%", reduction*100)
	}
}

func TestPodDefaults(t *testing.T) {
	g := Pod2Tracks(6)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(g.GPUs()); got != 48 {
		t.Errorf("GPUs = %d, want 48 (6 servers x 8)", got)
	}
	var access, core int
	for _, id := range g.Switches() {
		switch g.Node(id).Kind {
		case KindAccessSwitch:
			access++
		case KindCoreSwitch:
			core++
		}
	}
	if access != 2 {
		t.Errorf("access switches = %d, want 2 (one group, 2tracks)", access)
	}
	if core < 1 {
		t.Errorf("core switches = %d, want >= 1", core)
	}
}

func TestPod8TracksSpreadsUplinks(t *testing.T) {
	g2 := Pod2Tracks(16)
	g8 := Pod8Tracks(16)
	uplinksPerAccess := func(g *Graph) float64 {
		counts := map[NodeID]int{}
		for _, gpu := range g.GPUs() {
			for _, eid := range g.Incident(gpu) {
				e := g.Edge(eid)
				if e.Kind == LinkEthernet {
					counts[e.Other(gpu)]++
				}
			}
		}
		var total, n int
		for _, c := range counts {
			total += c
			n++
		}
		return float64(total) / float64(n)
	}
	if uplinksPerAccess(g8) >= uplinksPerAccess(g2) {
		t.Errorf("8tracks should have fewer GPUs per access switch: 2tracks=%g, 8tracks=%g",
			uplinksPerAccess(g2), uplinksPerAccess(g8))
	}
}

func TestPodMultipleGroups(t *testing.T) {
	g := Pod2Tracks(13) // 3 groups: 6 + 6 + 1
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := g.NumServers(); got != 13 {
		t.Errorf("servers = %d, want 13", got)
	}
	var access int
	for _, id := range g.Switches() {
		if g.Node(id).Kind == KindAccessSwitch {
			access++
		}
	}
	if access != 6 {
		t.Errorf("access switches = %d, want 6 (3 groups x 2 tracks)", access)
	}
	// Cross-group GPUs must still be reachable (via core switches).
	gpus := g.GPUs()
	first, last := gpus[0], gpus[len(gpus)-1]
	sp := g.Dijkstra(first, TransferCost(1<<20), nil)
	if math.IsInf(sp.Dist[last], 1) {
		t.Error("cross-group GPUs unreachable")
	}
}

func TestPodPanicsWithoutServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pod with zero servers did not panic")
		}
	}()
	Pod(PodConfig{})
}

func TestByName(t *testing.T) {
	for _, c := range []struct {
		name    string
		servers int
		gpus    int
	}{{"testbed", 0, 16}, {"pod2", 2, 16}, {"pod8", 3, 24}} {
		g, err := ByName(c.name, c.servers)
		if err != nil || len(g.GPUs()) != c.gpus {
			t.Errorf("ByName(%q, %d): err %v, want %d GPUs", c.name, c.servers, err, c.gpus)
		}
	}
	for _, c := range []struct {
		name    string
		servers int
		want    string
	}{{"pod4", 12, "testbed | pod2 | pod8"}, {"pod8", 1, "at least 2 servers"}, {"pod2", 0, "at least 2 servers"}} {
		if _, err := ByName(c.name, c.servers); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ByName(%q, %d): err %v, want one containing %q", c.name, c.servers, err, c.want)
		}
	}
}

func TestPCIeFallbackServer(t *testing.T) {
	g := Pod(PodConfig{
		Servers: 1,
		Server:  ServerSpec{GPUs: 4, GPUType: "L40", MemoryBytes: 48 * GiB},
	})
	var pcie int
	for i := 0; i < g.NumEdges(); i++ {
		if g.Edge(EdgeID(i)).Kind == LinkPCIe {
			pcie++
		}
	}
	if pcie != 6 {
		t.Errorf("PCIe mesh edges = %d, want 6 (4 choose 2)", pcie)
	}
}
