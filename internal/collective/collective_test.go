package collective

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"heroserve/internal/netsim"
	"heroserve/internal/sim"
	"heroserve/internal/switchsim"
	"heroserve/internal/telemetry"
	"heroserve/internal/topology"
)

// fig2Graph builds the exact scenario of Fig. 2: server A holds GN1, GN2
// (NVLink), server B holds GN3; access switch S2 serves server A's NICs and
// core switch S1 interconnects. In the homogeneous plan the aggregation
// point is S1 (two Ethernet hops from each GPU); in the heterogeneous plan
// GN1 pre-reduces to GN2 over NVLink and S2 aggregates one Ethernet hop away.
func fig2Graph() (*topology.Graph, []topology.NodeID, topology.NodeID, topology.NodeID) {
	g := topology.NewGraph()
	gn1 := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 0, GPUType: "A100"})
	gn2 := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 0, GPUType: "A100"})
	gn3 := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 1, GPUType: "A100"})
	s2 := g.AddNode(topology.Node{Kind: topology.KindAccessSwitch, INASlots: 512})
	s1 := g.AddNode(topology.Node{Kind: topology.KindCoreSwitch, INASlots: 512})
	s3 := g.AddNode(topology.Node{Kind: topology.KindAccessSwitch, INASlots: 512})
	g.AddEdge(gn1, gn2, topology.LinkNVLink, topology.NVLinkA100, topology.NVLinkHopLatency)
	g.AddEdge(gn1, s2, topology.LinkEthernet, topology.Ethernet100G, topology.EthernetHopLatency)
	g.AddEdge(gn2, s2, topology.LinkEthernet, topology.Ethernet100G, topology.EthernetHopLatency)
	g.AddEdge(gn3, s3, topology.LinkEthernet, topology.Ethernet100G, topology.EthernetHopLatency)
	// 2tracks cross-connect: server B's second NIC port also reaches S2.
	g.AddEdge(gn3, s2, topology.LinkEthernet, topology.Ethernet100G, topology.EthernetHopLatency)
	g.AddEdge(s2, s1, topology.LinkTrunk, topology.Ethernet100G, topology.TrunkHopLatency)
	g.AddEdge(s3, s1, topology.LinkTrunk, topology.Ethernet100G, topology.TrunkHopLatency)
	return g, []topology.NodeID{gn1, gn2, gn3}, s1, s2
}

func TestRingOrderGroupsByServer(t *testing.T) {
	g := topology.Testbed()
	// Pick GPUs interleaved across servers.
	gpus := g.GPUs()
	group := []topology.NodeID{gpus[9], gpus[0], gpus[8], gpus[1]}
	order := ringOrder(g, group, nil)
	if len(order) != 4 {
		t.Fatal("order length")
	}
	// Same-server GPUs must be adjacent.
	if g.Node(order[0]).Server != g.Node(order[1]).Server {
		t.Errorf("ring order not server-grouped: %v", order)
	}
	if g.Node(order[2]).Server != g.Node(order[3]).Server {
		t.Errorf("ring order not server-grouped: %v", order)
	}
}

// TestRingOrderFastPath checks ringOrder against a plain sort over random
// groups (with duplicates), and that a group already in ring order comes
// back as is, without a copy.
func TestRingOrderFastPath(t *testing.T) {
	g := topology.Pod2Tracks(12)
	gpus := g.GPUs()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		group := make([]topology.NodeID, 1+rng.Intn(9))
		for i := range group {
			group[i] = gpus[rng.Intn(len(gpus))]
		}
		if trial%2 == 0 {
			slices.Sort(group) // id order is ring order on a built topology
		}
		want := slices.Clone(group)
		sort.Slice(want, func(i, j int) bool {
			if si, sj := g.Node(want[i]).Server, g.Node(want[j]).Server; si != sj {
				return si < sj
			}
			return want[i] < want[j]
		})
		if got := ringOrder(g, group, nil); !slices.Equal(got, want) {
			t.Fatalf("ringOrder(%v) = %v, want %v", group, got, want)
		}
	}
	planned := []topology.NodeID{gpus[0], gpus[1], gpus[8], gpus[9]}
	if got := ringOrder(g, planned, nil); &got[0] != &planned[0] {
		t.Error("a group already in ring order was copied")
	}
	if allocs := testing.AllocsPerRun(100, func() { ringOrder(g, planned, nil) }); allocs != 0 {
		t.Errorf("ringOrder on a ring-ordered group allocates %.0f objects, want 0", allocs)
	}
}

func TestServerLeaders(t *testing.T) {
	g := topology.Testbed()
	gpus := g.GPUs()
	group := []topology.NodeID{gpus[2], gpus[0], gpus[5], gpus[4], gpus[8]}
	servers := serverLeaders(g, group)
	if len(servers) != 3 {
		t.Fatalf("server partitions = %d, want 3", len(servers))
	}
	for _, members := range servers {
		leader := members[0]
		for _, m := range members[1:] {
			if m < leader {
				t.Error("leader is not the lowest id")
			}
			if !g.SameServer(leader, m) {
				t.Error("partition spans servers")
			}
		}
	}
	// Deterministic order by leader id.
	for i := 1; i < len(servers); i++ {
		if servers[i-1][0] >= servers[i][0] {
			t.Error("partitions not ordered by leader")
		}
	}
}

// leadersByMap is the original map-and-sort partition, kept as the oracle
// for leadersBy.
func leadersByMap(group []topology.NodeID, key func(topology.NodeID) [2]int) [][]topology.NodeID {
	parts := make(map[[2]int][]topology.NodeID)
	for _, id := range group {
		k := key(id)
		parts[k] = append(parts[k], id)
	}
	var out [][]topology.NodeID
	for _, members := range parts {
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// TestLeadersMatchMapPartition compares serverLeaders and numaLeaders with
// the map-and-sort oracle on shuffled groups, groups with duplicated GPUs
// and groups whose servers interleave, and checks that appending to one
// part leaves the next one intact.
func TestLeadersMatchMapPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, g := range map[string]*topology.Graph{
		"testbed": topology.Testbed(), "pcie": pcieTestbed(), "pod8-4": topology.Pod8Tracks(4),
	} {
		gpus := g.GPUs()
		for trial := 0; trial < 200; trial++ {
			group := make([]topology.NodeID, 1+rng.Intn(2*len(gpus)))
			for i := range group {
				group[i] = gpus[rng.Intn(len(gpus))] // duplicates likely
			}
			if trial%2 == 0 {
				slices.Sort(group)
				group = slices.Compact(group)
				rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
			}
			orig := slices.Clone(group)
			for _, by := range []struct {
				name string
				key  func(topology.NodeID) [2]int
				got  func(*topology.Graph, []topology.NodeID) [][]topology.NodeID
			}{
				{"server", func(id topology.NodeID) [2]int { return [2]int{g.Node(id).Server, 0} }, serverLeaders},
				{"numa", func(id topology.NodeID) [2]int { n := g.Node(id); return [2]int{n.Server, n.NUMA} }, numaLeaders},
			} {
				got, want := by.got(g, group), leadersByMap(group, by.key)
				if !slices.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("%s %s leaders of %v = %v, want %v", name, by.name, group, got, want)
				}
				if !slices.Equal(group, orig) {
					t.Fatalf("%s %s leaders reordered the group", name, by.name)
				}
				for i := 0; i+1 < len(got); i++ {
					next := slices.Clone(got[i+1])
					_ = append(got[i], -1)
					if !slices.Equal(got[i+1], next) {
						t.Fatalf("%s %s: appending to part %d clobbered part %d", name, by.name, i, i+1)
					}
				}
			}
		}
	}
}

func TestStaticRouterCachesAndRoutes(t *testing.T) {
	g := topology.Testbed()
	r := NewStaticRouter(g)
	gpus := g.GPUs()
	p1, ok := r.Route(gpus[0], gpus[15], 1<<20)
	if !ok || len(p1.Edges) == 0 {
		t.Fatal("no route across testbed")
	}
	p2, ok := r.Route(gpus[0], gpus[15], 1<<20)
	if !ok || len(p2.Edges) != len(p1.Edges) {
		t.Error("cached route differs")
	}
	// Same-server route should stay on NVLink.
	ps, _ := r.Route(gpus[0], gpus[1], 1<<20)
	if len(ps.Edges) != 1 || g.Edge(ps.Edges[0]).Kind != topology.LinkNVLink {
		t.Errorf("intra-server route should be one NVLink hop, got %d hops", len(ps.Edges))
	}
}

// A repeated lookup returns the memoized path itself and allocates nothing;
// a different size class or destination resolves its own path.
func TestStaticRouterMemoizesPaths(t *testing.T) {
	g := topology.Testbed()
	r := NewStaticRouter(g)
	gpus := g.GPUs()
	p1, _ := r.Route(gpus[0], gpus[15], 1<<20)
	p2, _ := r.Route(gpus[0], gpus[15], 1<<20+1) // same decade class
	if &p1.Edges[0] != &p2.Edges[0] || &p1.Nodes[0] != &p2.Nodes[0] {
		t.Error("repeated route was rebuilt instead of shared")
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Route(gpus[0], gpus[15], 1<<20) }); allocs != 0 {
		t.Errorf("memoized route allocates %.1f objects, want 0", allocs)
	}
	p3, _ := r.Route(gpus[0], gpus[15], 1<<30)
	if &p3.Edges[0] == &p1.Edges[0] {
		t.Error("different size class shares the cached path")
	}
	if _, ok := r.Route(gpus[0], gpus[0], 1); !ok {
		t.Error("self route should resolve to an empty path")
	}
	// Past the cap the memo stops growing, and routes still resolve.
	n := topology.NodeID(g.NumNodes())
	for size := int64(1); size < 1e18; size *= 10 {
		for a := topology.NodeID(0); a < n; a++ {
			for b := topology.NodeID(0); b < n; b++ {
				r.Route(a, b, size)
			}
		}
	}
	if len(r.paths) != maxMemoPaths {
		t.Errorf("memo holds %d paths, want the cap %d", len(r.paths), maxMemoPaths)
	}
	if p, ok := r.Route(gpus[3], gpus[12], 1e17); !ok || p.Nodes[0] != gpus[3] || p.Nodes[len(p.Nodes)-1] != gpus[12] {
		t.Errorf("route past the cap = %+v, ok=%v", p, ok)
	}
}

// AppendRoute walks the same route Route returns, into the caller's
// buffers, for every GPU pair of the testbed and the pod in three size
// classes, and fails where Route fails. Warm, it allocates nothing.
func TestAppendRouteMatchesRoute(t *testing.T) {
	for _, g := range []*topology.Graph{topology.Testbed(), topology.Pod8Tracks(24)} {
		r := NewStaticRouter(g)
		var nodes []topology.NodeID
		var edges []topology.EdgeID
		for _, a := range g.GPUs() {
			for _, b := range g.GPUs() {
				for _, size := range []int64{1 << 10, 1 << 20, 1 << 30} {
					want, wantOK := r.Route(a, b, size)
					ns, es, ok := r.AppendRoute(nodes[:0], edges[:0], a, b, size)
					if ok != wantOK || !slices.Equal(ns, want.Nodes) || !slices.Equal(es, want.Edges) {
						t.Fatalf("%d->%d size %d: AppendRoute = %v %v %v, Route %v %v", a, b, size, ns, es, ok, want, wantOK)
					}
					nodes, edges = ns, es
				}
			}
		}
		gpus := g.GPUs()
		a, b := gpus[0], gpus[len(gpus)-1]
		if allocs := testing.AllocsPerRun(100, func() { r.AppendRoute(nodes[:0], edges[:0], a, b, 1<<20) }); allocs != 0 {
			t.Errorf("warm AppendRoute allocates %.1f objects, want 0", allocs)
		}
	}
	// An unreachable destination leaves the buffers as they were.
	g := topology.NewGraph()
	a := g.AddNode(topology.Node{Kind: topology.KindGPU})
	b := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 1})
	nodes, edges, ok := NewStaticRouter(g).AppendRoute([]topology.NodeID{7}, nil, a, b, 1)
	if ok || !slices.Equal(nodes, []topology.NodeID{7}) || len(edges) != 0 {
		t.Errorf("unreachable AppendRoute = %v %v %v", nodes, edges, ok)
	}
}

func TestMatrixRouter(t *testing.T) {
	g := topology.Testbed()
	gpus := g.GPUs()
	m := g.NewTrees(gpus[:4], 1<<20, nil).Matrix(gpus[:4])
	r := MatrixRouter{M: m}
	if _, ok := r.Route(gpus[0], gpus[3], 1); !ok {
		t.Error("in-set route failed")
	}
	if _, ok := r.Route(gpus[0], gpus[10], 1); ok {
		t.Error("out-of-set route should fail")
	}
}

// routeOnly hides a router's TransferTime, so BestAggSwitch prices each
// member-to-switch transfer by building its path, and its type, so a Comm
// over it routes every launch uncached, as under a router that is not
// static.
type routeOnly struct{ Router }

// TestBestAggSwitchFromDMatchesPaths: BestAggSwitch through a MatrixRouter
// reads D and picks the same switch, with the same delay bit for bit, as
// through the matrix's paths, at the matrix's size and at another one.
func TestBestAggSwitchFromDMatchesPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, g := range []*topology.Graph{topology.Testbed(), topology.Pod8Tracks(24)} {
		gpus := g.GPUs()
		working := append(append([]topology.NodeID{}, gpus...), g.Switches()...)
		const size = 3 << 20
		mr := MatrixRouter{M: g.NewTrees(working, size, FabricAllow(g)).Matrix(working)}
		for trial := 0; trial < 100; trial++ {
			group := make([]topology.NodeID, 1+rng.Intn(16))
			for i := range group {
				group[i] = gpus[rng.Intn(len(gpus))]
			}
			grp := NewGroup(g, group)
			for _, bytes := range []int64{size, size / 3} {
				sw, d, ok := BestAggSwitch(g, mr, grp, bytes)
				wsw, wd, wok := BestAggSwitch(g, routeOnly{mr}, grp, bytes)
				if sw != wsw || math.Float64bits(d) != math.Float64bits(wd) || ok != wok {
					t.Fatalf("group %v, %d bytes: switch %d delay %v ok %v, by path %d %v %v", group, bytes, sw, d, ok, wsw, wd, wok)
				}
			}
		}
	}
}

func TestFig2AnalyticHomoVsHetero(t *testing.T) {
	g, group, s1, s2 := fig2Graph()
	r := NewStaticRouter(g)
	const size = 1 << 20

	grp := NewGroup(g, group)
	homo := INAStepTime(g, r, grp, s1, size)
	hetero := HeteroStepTime(g, r, grp, s2, size)
	// Paper's worked numbers: ~160 us homogeneous vs ~90 us heterogeneous.
	// Our homo covers collection+distribution, so compare one direction: the
	// dominant collection leg is 2 Ethernet hops vs NVLink + 1 hop.
	if hetero >= homo {
		t.Fatalf("heterogeneous %g should beat homogeneous %g", hetero, homo)
	}
	reduction := 1 - hetero/homo
	if reduction < 0.25 {
		t.Errorf("reduction = %.1f%%, want >= 25%% (paper: ~43%%)", reduction*100)
	}
}

func TestBestAggSwitch(t *testing.T) {
	g, group, _, s2 := fig2Graph()
	r := NewStaticRouter(g)
	// For the two server-A GPUs alone, the nearest switch is S2.
	sw, delay, ok := BestAggSwitch(g, r, NewGroup(g, group[:2]), 1<<20)
	if !ok {
		t.Fatal("no switch found")
	}
	if sw != s2 {
		t.Errorf("best switch = %v, want S2 (%v)", sw, s2)
	}
	if delay <= 0 {
		t.Error("zero delay")
	}
	// Empty graph: no switch.
	empty := topology.NewGraph()
	a := empty.AddNode(topology.Node{Kind: topology.KindGPU})
	if _, _, ok := BestAggSwitch(empty, NewStaticRouter(empty), NewGroup(empty, []topology.NodeID{a}), 1); ok {
		t.Error("switchless graph returned a switch")
	}
}

func TestRingStepTimeMatchesEq11(t *testing.T) {
	// Dedicated chain a-b at 100 B/s, zero latency: 2(P-1)*(D/P)/B.
	g := topology.NewGraph()
	a := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 0})
	b := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 1})
	g.AddEdge(a, b, topology.LinkEthernet, 100, 0)
	r := NewStaticRouter(g)
	got := RingStepTime(g, r, NewGroup(g, []topology.NodeID{a, b}), 1000)
	want := 2.0 * 1 * (500.0 / (100.0 * RingEfficiency))
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("RingStepTime = %g, want %g", got, want)
	}
	if RingStepTime(g, r, NewGroup(g, []topology.NodeID{a}), 1000) != 0 {
		t.Error("single-member ring should be free")
	}
}

func TestChooseSchemeRegimes(t *testing.T) {
	// Regime 1 — clean network with per-GPU NICs: with the ring protocol
	// derating, direct INA at the adjacent switch is the cheapest scheme
	// (hetero adds pre-reduction hops it does not need here).
	g, group, _, s2 := fig2Graph()
	r := NewStaticRouter(g)
	scheme, lat := ChooseScheme(g, r, NewGroup(g, group), s2, 8<<20, true)
	if scheme != SchemeINASync {
		t.Errorf("clean large-message scheme = %v, want ina-sync", scheme)
	}
	if math.IsInf(lat, 1) {
		t.Error("infinite latency")
	}

	// Regime 2 — congested non-leader NICs on a 16-GPU group (the paper's
	// bursty-traffic scenario): direct Ethernet INA must cross hot links,
	// ring pays 2(P-1) sequential fill rounds, while the heterogeneous
	// scheme pre-reduces over NVLink to each server's leader and uses only
	// the leaders' clean uplinks.
	tb := topology.Testbed()
	leaders := map[topology.NodeID]bool{}
	for s := 0; s < tb.NumServers(); s++ {
		leaders[tb.ServerGPUs(s)[0]] = true
	}
	for i := 0; i < tb.NumEdges(); i++ {
		e := tb.Edge(topology.EdgeID(i))
		if e.Kind != topology.LinkEthernet {
			continue
		}
		gpuEnd := e.A
		if tb.Node(gpuEnd).Kind != topology.KindGPU {
			gpuEnd = e.B
		}
		if tb.Node(gpuEnd).Kind == topology.KindGPU && !leaders[gpuEnd] {
			e.Available = e.Capacity / 50
		}
	}
	all := append(append([]topology.NodeID{}, tb.GPUs()...), tb.Switches()...)
	m := tb.NewTrees(all, 256<<10, nil).Matrix(all)
	mr := MatrixRouter{M: m}
	all16 := NewGroup(tb, tb.GPUs())
	sw, _, ok := BestAggSwitch(tb, mr, all16, 256<<10)
	if !ok {
		t.Fatal("no aggregation switch")
	}
	scheme2, _ := ChooseScheme(tb, mr, all16, sw, 256<<10, true)
	if scheme2 != SchemeHetero {
		t.Errorf("congested scheme = %v, want hetero", scheme2)
	}
	// Without hetero permitted, the choice degrades to INA or ring.
	scheme3, _ := ChooseScheme(tb, mr, all16, sw, 256<<10, false)
	if scheme3 == SchemeHetero {
		t.Error("hetero chosen when disabled")
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		SchemeRing: "ring", SchemeINASync: "ina-sync",
		SchemeINAAsync: "ina-async", SchemeHetero: "ina-hetero",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if SchemeRing.UsesINA() || !SchemeHetero.UsesINA() {
		t.Error("UsesINA wrong")
	}
	if Scheme(99).String() != "unknown" {
		t.Error("unknown scheme string")
	}
}

// newComm builds a Comm over a fresh testbed.
func newComm(t *testing.T) (*Comm, *sim.Engine, *topology.Graph) {
	t.Helper()
	g := topology.Testbed()
	eng := sim.NewEngine()
	net := netsim.New(g, eng)
	return NewComm(net, NewStaticRouter(g)), eng, g
}

// linkBytes arms net's telemetry and returns a reader of each edge's
// link_bytes_total counter. The counters are labelled "007:gpu0-tor0", the
// edge id first.
func linkBytes(t *testing.T, net *netsim.Network) func(topology.EdgeID) float64 {
	t.Helper()
	h := telemetry.New()
	net.SetTelemetry(h)
	labels := make([]string, net.Graph().NumEdges())
	for _, lv := range h.Metrics.Children("link_bytes_total") {
		id, _, _ := strings.Cut(lv[0], ":")
		eid, err := strconv.Atoi(id)
		if err != nil || eid >= len(labels) {
			t.Fatalf("link_bytes_total label %q names no edge", lv[0])
		}
		labels[eid] = lv[0]
	}
	return func(eid topology.EdgeID) float64 {
		v, ok := h.Metrics.Value("link_bytes_total", labels[eid])
		if !ok {
			t.Fatalf("no link_bytes_total counter for edge %d", eid)
		}
		return v
	}
}

func TestTransferDelivers(t *testing.T) {
	c, eng, g := newComm(t)
	gpus := g.GPUs()
	var doneAt sim.Time = -1
	c.Transfer(gpus[0], gpus[15], 1<<20, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt <= 0 {
		t.Fatal("transfer never delivered")
	}
	// Self transfer completes at time zero.
	ran := false
	c.Transfer(gpus[0], gpus[0], 1<<20, func() { ran = true })
	eng.Run()
	if !ran {
		t.Error("self transfer")
	}
	if c.Counters().Transfers != 2 {
		t.Errorf("Transfers counter = %d", c.Counters().Transfers)
	}
}

func TestSimulatedRingAllReduce(t *testing.T) {
	c, eng, g := newComm(t)
	// All four GPUs of server 0: pure NVLink ring.
	group := g.ServerGPUs(0)
	var doneAt sim.Time = -1
	const size = 64 << 20
	c.RingAllReduce(NewGroup(g, group), size, 1, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt <= 0 {
		t.Fatal("ring all-reduce never completed")
	}
	// Expected: total per segment = 2*3/4*64MB / RingEfficiency at 600 GB/s
	// NVLink plus fill latencies.
	want := 2.0 * 3.0 / 4.0 * float64(size) / topology.NVLinkA100 / RingEfficiency
	if doneAt < want*0.99 || doneAt > want*1.5+1e-4 {
		t.Errorf("NVLink ring took %g s, want ~%g s", doneAt, want)
	}
	if c.Counters().RingOps != 1 {
		t.Error("ring op not counted")
	}
}

func TestRingTrivialCases(t *testing.T) {
	c, eng, g := newComm(t)
	ran := 0
	one, two := NewGroup(g, g.GPUs()[:1]), NewGroup(g, g.GPUs()[:2])
	c.RingAllReduce(one, 1<<20, 1, func() { ran++ })
	c.RingAllReduce(two, 0, 1, func() { ran++ })
	c.RingAllReduce(two, 1<<20, 0, func() { ran++ })
	eng.Run()
	if ran != 3 {
		t.Errorf("trivial ring ops completed %d/3", ran)
	}
}

func TestSimulatedINASyncAllReduce(t *testing.T) {
	c, eng, g := newComm(t)
	// One GPU from each server, aggregating at switch 0.
	group := []topology.NodeID{
		g.ServerGPUs(0)[0], g.ServerGPUs(1)[0],
		g.ServerGPUs(2)[0], g.ServerGPUs(3)[0],
	}
	sw := g.Switches()[0]
	var doneAt sim.Time = -1
	const size = 16 << 20
	c.INAAllReduce(NewGroup(g, group), sw, size, 1, switchsim.ModeSync, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt <= 0 {
		t.Fatal("INA all-reduce never completed")
	}
	// Collection + distribution, each one Ethernet hop (or two via trunk):
	// at least 2*size/linkBW.
	lower := 2 * float64(size) / topology.Ethernet100G
	if doneAt < lower {
		t.Errorf("INA completed impossibly fast: %g < %g", doneAt, lower)
	}
	if doneAt > lower*4 {
		t.Errorf("INA too slow: %g s", doneAt)
	}
	if c.Counters().INASyncOps != 1 {
		t.Error("sync op not counted")
	}
	// The data plane actually aggregated.
	if c.Switch(sw).Counters().Aggregates == 0 {
		t.Error("switch data plane saw no aggregation")
	}
}

func TestINAFallbackWhenSlotsExhausted(t *testing.T) {
	c, eng, g := newComm(t)
	group := NewGroup(g, []topology.NodeID{g.ServerGPUs(0)[0], g.ServerGPUs(1)[0]})
	sw := g.Switches()[0]
	// 512-slot pool / 128-slot windows = 4 concurrent jobs; the 5th falls
	// back to ring.
	completed := 0
	for i := 0; i < 5; i++ {
		c.INAAllReduce(group, sw, 1<<20, 1, switchsim.ModeSync, func() { completed++ })
	}
	if got := c.Counters().SlotFallbacks; got != 1 {
		t.Errorf("SlotFallbacks = %d, want 1", got)
	}
	eng.Run()
	if completed != 5 {
		t.Errorf("completed %d/5 ops", completed)
	}
	if c.Counters().RingOps != 1 {
		t.Errorf("fallback ring ops = %d, want 1", c.Counters().RingOps)
	}
}

func TestAsyncContentionPenalty(t *testing.T) {
	// A lone async op vs one that starts while another is in flight: the
	// second must take longer per byte (ATP fallback penalty).
	elapsedLone := func() sim.Time {
		c, eng, g := newComm(t)
		group := NewGroup(g, []topology.NodeID{g.ServerGPUs(0)[0], g.ServerGPUs(1)[0]})
		var done sim.Time
		c.INAAllReduce(group, g.Switches()[0], 8<<20, 1, switchsim.ModeAsync, func() { done = eng.Now() })
		eng.Run()
		return done
	}()

	c, eng, g := newComm(t)
	groupA := NewGroup(g, []topology.NodeID{g.ServerGPUs(0)[0], g.ServerGPUs(1)[0]})
	groupB := NewGroup(g, []topology.NodeID{g.ServerGPUs(2)[0], g.ServerGPUs(3)[0]})
	sw := g.Switches()[0]
	var doneB sim.Time
	var startB sim.Time
	c.INAAllReduce(groupA, sw, 64<<20, 1, switchsim.ModeAsync, func() {})
	eng.PostAfter(1e-4, func() {
		startB = eng.Now()
		c.INAAllReduce(groupB, sw, 8<<20, 1, switchsim.ModeAsync, func() { doneB = eng.Now() })
	})
	eng.Run()
	if doneB-startB <= elapsedLone {
		t.Errorf("contended async op (%g s) should be slower than lone op (%g s)",
			doneB-startB, elapsedLone)
	}
	if c.Counters().INAAsyncOps != 2 {
		t.Error("async ops not counted")
	}
}

func TestHeteroAllReduceBeatsEthernetINA(t *testing.T) {
	// Whole-testbed group: 16 GPUs on 4 servers. Hetero sends 4 Ethernet
	// streams instead of 16 and must finish faster.
	inaTime := func() sim.Time {
		c, eng, g := newComm(t)
		var done sim.Time
		c.INAAllReduce(NewGroup(g, g.GPUs()), g.Switches()[0], 8<<20, 4, switchsim.ModeSync, func() { done = eng.Now() })
		eng.Run()
		return done
	}()
	heteroTime := func() sim.Time {
		c, eng, g := newComm(t)
		var done sim.Time
		c.HeteroAllReduce(NewGroup(g, g.GPUs()), g.Switches()[0], 8<<20, 4, func() { done = eng.Now() })
		eng.Run()
		if c.Counters().HeteroOps != 1 {
			t.Error("hetero op not counted")
		}
		return done
	}()
	if heteroTime >= inaTime {
		t.Errorf("hetero %g s should beat Ethernet INA %g s", heteroTime, inaTime)
	}
}

func TestHeteroSingleServerStaysOnNVLink(t *testing.T) {
	c, eng, g := newComm(t)
	carried := linkBytes(t, c.Network())
	group := NewGroup(g, g.ServerGPUs(0))
	var done sim.Time = -1
	c.HeteroAllReduce(group, g.Switches()[0], 8<<20, 1, func() { done = eng.Now() })
	eng.Run()
	if done < 0 {
		t.Fatal("never completed")
	}
	// No Ethernet edge should have carried bytes.
	for i := 0; i < g.NumEdges(); i++ {
		eid := topology.EdgeID(i)
		if g.Edge(eid).Kind == topology.LinkEthernet && carried(eid) > 0 {
			t.Fatalf("single-server hetero used Ethernet edge %d", i)
		}
	}
}

func TestAllReduceDispatch(t *testing.T) {
	c, eng, g := newComm(t)
	group := NewGroup(g, []topology.NodeID{g.ServerGPUs(0)[0], g.ServerGPUs(1)[0]})
	sw := g.Switches()[0]
	completed := 0
	for _, s := range []Scheme{SchemeRing, SchemeINASync, SchemeINAAsync, SchemeHetero} {
		c.AllReduce(s, group, sw, 1<<20, 1, nil, func() { completed++ })
	}
	eng.Run()
	if completed != 4 {
		t.Errorf("completed %d/4", completed)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown scheme accepted")
		}
	}()
	c.AllReduce(Scheme(42), group, sw, 1, 1, nil, nil)
}

// BenchmarkAllReduce times one launch→done cycle of a warm all-reduce of
// 8 steps of 1 MiB over the whole testbed (16 GPUs on 4 servers), on one
// Comm whose engine, network and op free lists stay warm across
// iterations. Its router is static (the planned policy's and the
// baselines': paths come from the group's route cache) or load-aware
// (HeroServe's: each phase is routed uncached, on the load at its launch);
// under either, every phase starts as one flow group. It reports the
// network's reallocations per cycle.
func BenchmarkAllReduce(b *testing.B) {
	g := topology.Testbed()
	grp := NewGroup(g, g.GPUs())
	sw := g.Switches()[0]
	done := func() {}
	for _, rc := range []struct {
		name   string
		router func(*netsim.Network) Router
	}{
		{"static", func(*netsim.Network) Router { return NewStaticRouter(g) }},
		{"load-aware", func(net *netsim.Network) Router {
			r := NewLoadAwareRouter(g, 3)
			r.Bind(net)
			return r
		}},
	} {
		eng := sim.NewEngine()
		net := netsim.New(g, eng)
		probe := new(reallocCounter)
		net.SetPerf(probe)
		c := NewComm(net, rc.router(net))
		for _, s := range []Scheme{SchemeRing, SchemeINASync, SchemeHetero} {
			b.Run("router="+rc.name+"/scheme="+s.String(), func(b *testing.B) {
				b.ReportAllocs()
				probe.n = 0
				for i := 0; i < b.N; i++ {
					c.AllReduce(s, grp, sw, 1<<20, 8, nil, done)
					eng.Run()
				}
				b.ReportMetric(float64(probe.n)/float64(b.N), "reallocs/op")
			})
		}
	}
}

// reallocCounter is a netsim.PerfProbe that counts reallocations.
type reallocCounter struct{ n int64 }

func (p *reallocCounter) ReallocStart() int64              { p.n++; return 0 }
func (p *reallocCounter) ReallocDone(int64, int, int, int) {}

// TestCollectiveSteadyStateAllocs pins the launch→done cost of a warm
// collective on a prepared group: a cross-server ring all-reduce and a
// transfer each start their flows as one group, whose flows, group and
// delivery events are all recycled, so neither allocates. A synchronous INA
// all-reduce recycles its op and phase callbacks too; what it still
// allocates is the switch data plane's job registration and aggregation
// result. A heterogeneous all-reduce recycles its op and reads its parts
// from the group: on one server it allocates nothing, and across servers
// only its inter-server INA's data plane allocates.
func TestCollectiveSteadyStateAllocs(t *testing.T) {
	c, eng, g := newComm(t)
	ring := NewGroup(g, []topology.NodeID{g.ServerGPUs(0)[0], g.ServerGPUs(0)[1], g.ServerGPUs(1)[0], g.ServerGPUs(2)[0]})
	server := NewGroup(g, g.ServerGPUs(0))
	sw := g.Switches()[0]
	done := func() {}
	for _, tc := range []struct {
		name string
		op   func()
		want float64
	}{
		{"ring", func() { c.RingAllReduce(ring, 1<<20, 4, done) }, 0},
		{"transfer", func() { c.Transfer(ring.Members()[0], ring.Members()[3], 1<<20, done) }, 0},
		{"ina-sync", func() { c.INAAllReduce(ring, sw, 1<<20, 4, switchsim.ModeSync, done) }, 4},
		{"hetero-one-server", func() { c.HeteroAllReduce(server, sw, 1<<20, 4, done) }, 0},
		{"hetero-cross-server", func() { c.HeteroAllReduce(ring, sw, 1<<20, 4, done) }, 4},
	} {
		cycle := func() {
			tc.op()
			eng.Run()
		}
		for i := 0; i < 100; i++ {
			cycle()
		}
		if got := testing.AllocsPerRun(200, cycle); got != tc.want {
			t.Errorf("%s: %.2f allocs per launch→done cycle, want %g", tc.name, got, tc.want)
		}
	}
}

// serverLeaders partitions the group as a Group's server parts.
func serverLeaders(g *topology.Graph, group []topology.NodeID) [][]topology.NodeID {
	_, parts := leadersBy(nil, nil, g, group, false)
	return parts
}

// numaLeaders partitions the group as a Group's NUMA parts.
func numaLeaders(g *topology.Graph, group []topology.NodeID) [][]topology.NodeID {
	_, parts := leadersBy(nil, nil, g, group, true)
	return parts
}
