package topology

import "fmt"

// Bandwidths and fixed latencies of the paper's hardware, in bytes/second and
// seconds. The paper quotes NVLink at 600 GB/s (A100, §I) and inter-server
// links at 100 Gb/s Ethernet; Fig. 2's worked example (1 MB, 2 Ethernet hops
// ~= 160 us; NVLink + 1 Ethernet hop ~= 90 us) pins the per-hop constants.
const (
	Ethernet100G = 12.5e9 // 100 Gb/s in bytes/s
	NVLinkA100   = 600e9  // A100 NVLink aggregate, bytes/s
	NVLinkV100   = 300e9  // V100 NVLink aggregate, bytes/s
	PCIe4x16     = 32e9   // PCIe 4.0 x16, bytes/s (future-work fallback)
	TrunkDefault = 4 * Ethernet100G

	EthernetHopLatency = 2e-6   // NIC + switch traversal
	NVLinkHopLatency   = 1e-6   // intra-server hop
	TrunkHopLatency    = 1.5e-6 // switch-to-switch

	// DefaultINASlots is the aggregator-slot pool size of a programmable
	// switch (SwitchML-style pool, §IV "Agent on Programmable Switches").
	DefaultINASlots = 512

	GiB = int64(1) << 30
)

// CrossNUMAFactor derates PCIe bandwidth for GPU pairs in different NUMA
// domains: their traffic crosses the inter-socket interconnect (the paper's
// future-work concern, §VII: "avoiding performance degradation due to
// cross-NUMA effects").
const CrossNUMAFactor = 0.5

// ServerSpec describes one homogeneous GPU server.
type ServerSpec struct {
	GPUs        int
	GPUType     string
	MemoryBytes int64   // per-GPU HBM
	NVLinkBW    float64 // per-link intra-server bandwidth (0 = use PCIe)
	// NUMADomains splits a PCIe server's GPUs round-robin across CPU
	// sockets; cross-domain PCIe links run at CrossNUMAFactor of the
	// intra-domain bandwidth. Ignored (single domain) when <= 1 or when the
	// server has NVLink (NVSwitch fabrics are NUMA-oblivious).
	NUMADomains int
}

// A100Server returns the testbed's A100 server spec (4 GPUs x 40 GB, Fig. 6).
func A100Server() ServerSpec {
	return ServerSpec{GPUs: 4, GPUType: "A100", MemoryBytes: 40 * GiB, NVLinkBW: NVLinkA100}
}

// V100Server returns the testbed's V100 server spec (4 GPUs x 32 GB, Fig. 6).
func V100Server() ServerSpec {
	return ServerSpec{GPUs: 4, GPUType: "V100", MemoryBytes: 32 * GiB, NVLinkBW: NVLinkV100}
}

// A100x8Server returns the simulation's server spec (8 GPUs x 40 GB, §V).
func A100x8Server() ServerSpec {
	return ServerSpec{GPUs: 8, GPUType: "A100", MemoryBytes: 40 * GiB, NVLinkBW: NVLinkA100}
}

// L40Server returns a PCIe-only L40 server (no NVLink) with two NUMA
// domains — the §VII future-work configuration.
func L40Server() ServerSpec {
	return ServerSpec{GPUs: 4, GPUType: "L40", MemoryBytes: 48 * GiB, NUMADomains: 2}
}

// addServer adds the GPUs of one server as a full NVLink (or PCIe) mesh and
// returns their node ids. PCIe servers with NUMADomains > 1 derate
// cross-domain links by CrossNUMAFactor.
func addServer(g *Graph, server int, spec ServerSpec) []NodeID {
	domains := spec.NUMADomains
	if domains <= 1 || spec.NVLinkBW > 0 {
		domains = 1
	}
	ids := make([]NodeID, spec.GPUs)
	for i := 0; i < spec.GPUs; i++ {
		ids[i] = g.AddNode(Node{
			Kind:        KindGPU,
			Name:        fmt.Sprintf("srv%d-gpu%d", server, i),
			Server:      server,
			NUMA:        i % domains,
			GPUType:     spec.GPUType,
			MemoryBytes: spec.MemoryBytes,
			FreeBytes:   spec.MemoryBytes,
		})
	}
	kind, bw, lat := LinkNVLink, spec.NVLinkBW, NVLinkHopLatency
	if spec.NVLinkBW <= 0 {
		kind, bw, lat = LinkPCIe, PCIe4x16, NVLinkHopLatency
	}
	for i := 0; i < spec.GPUs; i++ {
		for j := i + 1; j < spec.GPUs; j++ {
			linkBW := bw
			if kind == LinkPCIe && g.Node(ids[i]).NUMA != g.Node(ids[j]).NUMA {
				linkBW = bw * CrossNUMAFactor
			}
			g.AddEdge(ids[i], ids[j], kind, linkBW, lat)
		}
	}
	return ids
}

// Testbed builds the paper's Fig. 6 testbed: two A100 servers and two V100
// servers (4 GPUs each, NVLink full mesh), two programmable access switches
// in the 2tracks cross-connected scheme (each server's four 100 Gb/s NIC
// ports split two-and-two across the switches), a trunk between the
// switches, and two host nodes (parameter server and traffic replayer).
func Testbed() *Graph {
	g := NewGraph()
	specs := []ServerSpec{A100Server(), A100Server(), V100Server(), V100Server()}

	sw := make([]NodeID, 2)
	for i := range sw {
		sw[i] = g.AddNode(Node{
			Kind:     KindAccessSwitch,
			Name:     fmt.Sprintf("tofino%d", i),
			INASlots: DefaultINASlots,
		})
	}
	g.AddEdge(sw[0], sw[1], LinkTrunk, TrunkDefault, TrunkHopLatency)

	for s, spec := range specs {
		gpus := addServer(g, s, spec)
		// Cross-connect: GPUs 0,1 uplink to switch 0; GPUs 2,3 to switch 1
		// (high-availability 2tracks wiring, Fig. 6).
		for i, gpu := range gpus {
			g.AddEdge(gpu, sw[i/2%2], LinkEthernet, Ethernet100G, EthernetHopLatency)
		}
	}

	ps := g.AddNode(Node{Kind: KindHost, Name: "param-server"})
	replayer := g.AddNode(Node{Kind: KindHost, Name: "replayer"})
	g.AddEdge(ps, sw[0], LinkEthernet, Ethernet100G, EthernetHopLatency)
	g.AddEdge(replayer, sw[1], LinkEthernet, Ethernet100G, EthernetHopLatency)
	return g
}

// PodConfig parameterizes the large-scale simulation topologies of §V. A pod
// is a set of server groups; each group of ServersPerGroup servers shares
// Tracks access switches, and all access switches connect to CoreSwitches
// core switches. The paper's 2tracks configuration groups 6 servers per 2
// access switches; 8tracks groups 16 servers per 8 access switches.
type PodConfig struct {
	Servers         int
	Server          ServerSpec
	Tracks          int
	ServersPerGroup int
	CoreSwitches    int
	EthernetBW      float64
	TrunkBW         float64
	// Oversubscription is the access-to-core Clos oversubscription ratio
	// used when TrunkBW is derived (default 3:1, a typical datacenter
	// fabric). Higher ratios congest cross-access traffic more — this is
	// what separates the 2tracks and 8tracks settings: 2tracks funnels 24
	// GPUs through each access switch's uplinks, 8tracks only 16.
	Oversubscription float64
	INASlots         int
}

func (c *PodConfig) setDefaults() {
	if c.Server.GPUs == 0 {
		c.Server = A100x8Server()
	}
	if c.EthernetBW == 0 {
		c.EthernetBW = Ethernet100G
	}
	if c.INASlots == 0 {
		c.INASlots = DefaultINASlots
	}
	if c.Tracks == 0 {
		c.Tracks = 2
	}
	if c.ServersPerGroup == 0 {
		c.ServersPerGroup = 6
	}
	if c.CoreSwitches == 0 {
		groups := (c.Servers + c.ServersPerGroup - 1) / c.ServersPerGroup
		// Paper ratio: 2tracks has 27 cores per 400 access switches; 8tracks
		// 280 per 600. Approximate with tracks-scaled core counts, >= 1.
		c.CoreSwitches = max(1, groups*c.Tracks/8)
	}
	if c.Oversubscription == 0 {
		c.Oversubscription = 3
	}
	if c.TrunkBW == 0 {
		// Clos uplinks: each access switch's aggregate uplink is its GPU
		// downlink divided by the oversubscription ratio, split across the
		// core switches.
		downlink := c.EthernetBW * float64(c.ServersPerGroup*c.Server.GPUs) / float64(c.Tracks)
		c.TrunkBW = downlink / (float64(c.CoreSwitches) * c.Oversubscription)
	}
}

// Pod builds a simulation pod per cfg. GPU NICs within a group are spread
// round-robin across the group's access switches; every access switch
// uplinks to every core switch.
func Pod(cfg PodConfig) *Graph {
	cfg.setDefaults()
	if cfg.Servers <= 0 {
		panic("topology: PodConfig.Servers must be positive")
	}
	g := NewGraph()

	cores := make([]NodeID, cfg.CoreSwitches)
	for i := range cores {
		cores[i] = g.AddNode(Node{
			Kind:     KindCoreSwitch,
			Name:     fmt.Sprintf("core%d", i),
			INASlots: cfg.INASlots,
		})
	}

	groups := (cfg.Servers + cfg.ServersPerGroup - 1) / cfg.ServersPerGroup
	server := 0
	for grp := 0; grp < groups; grp++ {
		access := make([]NodeID, cfg.Tracks)
		for t := range access {
			access[t] = g.AddNode(Node{
				Kind:     KindAccessSwitch,
				Name:     fmt.Sprintf("grp%d-access%d", grp, t),
				INASlots: cfg.INASlots,
			})
			for _, core := range cores {
				g.AddEdge(access[t], core, LinkTrunk, cfg.TrunkBW, TrunkHopLatency)
			}
		}
		for s := 0; s < cfg.ServersPerGroup && server < cfg.Servers; s++ {
			gpus := addServer(g, server, cfg.Server)
			for i, gpu := range gpus {
				g.AddEdge(gpu, access[i%cfg.Tracks], LinkEthernet, cfg.EthernetBW, EthernetHopLatency)
			}
			server++
		}
	}
	return g
}

// Pod2Tracks builds a 2tracks pod (6 servers per 2 access switches) with the
// given server count, using the simulation's 8-GPU A100 servers.
func Pod2Tracks(servers int) *Graph {
	return Pod(PodConfig{Servers: servers, Tracks: 2, ServersPerGroup: 6})
}

// Pod8Tracks builds an 8tracks pod (16 servers per 8 access switches): the
// same GPUs spread across four times as many uplinks, modelling the paper's
// "more evenly distributed traffic across a larger number of switches".
func Pod8Tracks(servers int) *Graph {
	return Pod(PodConfig{Servers: servers, Tracks: 8, ServersPerGroup: 16})
}

// ByName builds the topology a command line names: the testbed, or a pod2
// or pod8 pod of the given server count (the testbed ignores it). A pod needs
// at least two servers, so that it splits into a prefill and a decode pool.
func ByName(name string, servers int) (*Graph, error) {
	var pod func(int) *Graph
	switch name {
	case "testbed":
		return Testbed(), nil
	case "pod2":
		pod = Pod2Tracks
	case "pod8":
		pod = Pod8Tracks
	default:
		return nil, fmt.Errorf("unknown topology %q (allowed: testbed | pod2 | pod8)", name)
	}
	if servers < 2 {
		return nil, fmt.Errorf("a pod needs at least 2 servers (one prefill and one decode), got %d", servers)
	}
	return pod(servers), nil
}
