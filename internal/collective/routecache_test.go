package collective

import (
	"math"
	"slices"
	"testing"

	"heroserve/internal/netsim"
	"heroserve/internal/sim"
	"heroserve/internal/switchsim"
	"heroserve/internal/topology"
)

func TestSizeClass(t *testing.T) {
	for _, tc := range []struct {
		size  int64
		class int
		rep   int64
	}{
		{-5, 0, 1},
		{0, 0, 1},
		{1, 0, 1},
		{2, 1, 10},
		{10, 1, 10},
		{11, 2, 100},
		{1 << 20, 7, 1e7},
		{1e17 + 1, 18, 1e18},
		{1e18, 18, 1e18},
		{1e18 + 1, 18, 1e18},
		{8e18, 18, 1e18},
		{math.MaxInt64, 18, 1e18},
	} {
		class, rep := sizeClass(tc.size)
		if class != tc.class || rep != tc.rep {
			t.Errorf("sizeClass(%d) = %d, %d, want %d, %d", tc.size, class, rep, tc.class, tc.rep)
		}
	}
}

// decadeGraph joins four GPUs, two per server, through two INA switches:
// "thin", near and narrow, and "wide", far and broad. Every route runs over
// one of them, and which one depends on the size: the thin switch is the
// cheaper relay below about 10^6 bytes and the wide one above, so
// launches of 10^4 and 10^7 bytes route differently.
func decadeGraph() (g *topology.Graph, gpus []topology.NodeID, thin, wide topology.NodeID) {
	g = topology.NewGraph()
	thin = g.AddNode(topology.Node{Kind: topology.KindAccessSwitch, Name: "thin", INASlots: 512})
	wide = g.AddNode(topology.Node{Kind: topology.KindCoreSwitch, Name: "wide", INASlots: 512})
	for s := 0; s < 2; s++ {
		for i := 0; i < 2; i++ {
			gpu := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: s, GPUType: "A100"})
			g.AddEdge(gpu, thin, topology.LinkEthernet, 1e9, 1e-6)
			g.AddEdge(gpu, wide, topology.LinkEthernet, 1e11, 1e-3)
			gpus = append(gpus, gpu)
		}
	}
	return g, gpus, thin, wide
}

// twin is a Comm on its own engine and network, with the network's
// link_bytes_total counters.
type twin struct {
	eng   *sim.Engine
	c     *Comm
	bytes func(topology.EdgeID) float64
}

// staticTwins returns a Comm under a StaticRouter over g and one under the
// same kind of router with its type hidden, which therefore bypasses the
// route cache and routes every launch afresh, uncached. Both run on
// networks newNet builds.
func staticTwins(t *testing.T, g *topology.Graph, newNet func(*topology.Graph, *sim.Engine) *netsim.Network) [2]twin {
	t.Helper()
	var tw [2]twin
	for i := range tw {
		eng := sim.NewEngine()
		net := newNet(g, eng)
		var r Router = NewStaticRouter(g)
		if i == 1 {
			r = routeOnly{r}
		}
		tw[i] = twin{eng: eng, c: NewComm(net, r), bytes: linkBytes(t, net)}
	}
	if tw[0].c.static == nil || tw[1].c.static != nil {
		t.Fatal("the twins do not split into a static and a hidden router")
	}
	return tw
}

// cacheLaunch is one step of a route-cache lockstep: an optional Reset of
// the shared group, then one collective.
type cacheLaunch struct {
	name  string
	reset []topology.NodeID // re-prepare the group for these members first
	run   func(c *Comm, grp *Group, done func())
}

func ringLaunch(msg int64) func(*Comm, *Group, func()) {
	return func(c *Comm, grp *Group, done func()) { c.RingAllReduce(grp, msg, 1, done) }
}

func inaLaunch(sw topology.NodeID, msg int64, mode switchsim.Mode) func(*Comm, *Group, func()) {
	return func(c *Comm, grp *Group, done func()) { c.INAAllReduce(grp, sw, msg, 1, mode, done) }
}

func heteroLaunch(sw topology.NodeID, msg int64) func(*Comm, *Group, func()) {
	return func(c *Comm, grp *Group, done func()) { c.HeteroAllReduce(grp, sw, msg, 1, done) }
}

func heteroNUMALaunch(sw topology.NodeID, msg int64) func(*Comm, *Group, func()) {
	return func(c *Comm, grp *Group, done func()) { c.HeteroNUMAAllReduce(grp, sw, msg, 1, done) }
}

// cacheLockstep runs the launches on a static-routed Comm and on one whose
// router hides its type, sharing one group, on both flow simulators, and
// requires the same completion time, op counters and bytes on every link
// after each launch.
func cacheLockstep(t *testing.T, g *topology.Graph, launches []cacheLaunch) {
	t.Helper()
	for _, v := range []struct {
		name string
		new  func(*topology.Graph, *sim.Engine) *netsim.Network
	}{
		{"fast", netsim.New},
		{"reference", netsim.NewReference},
	} {
		tw := staticTwins(t, g, v.new)
		grp := new(Group)
		for _, l := range launches {
			if l.reset != nil {
				grp.Reset(g, l.reset)
			}
			var at [2]sim.Time
			for i := range tw {
				at[i] = -1
				l.run(tw[i].c, grp, func() { at[i] = tw[i].eng.Now() })
				tw[i].eng.Run()
			}
			if at[0] < 0 || at[0] != at[1] {
				t.Fatalf("%s/%s: done at %v under the static router, %v under the hidden one", v.name, l.name, at[0], at[1])
			}
			if a, b := tw[0].c.Counters(), tw[1].c.Counters(); a != b {
				t.Fatalf("%s/%s: counters %+v, hidden %+v", v.name, l.name, a, b)
			}
			for e := 0; e < g.NumEdges(); e++ {
				eid := topology.EdgeID(e)
				if a, b := tw[0].bytes(eid), tw[1].bytes(eid); a != b {
					t.Fatalf("%s/%s: edge %d carried %v bytes, hidden %v", v.name, l.name, e, a, b)
				}
			}
		}
	}
}

// TestRouteCacheKeys locksteps a static-routed Comm against an uncached
// one (cacheLockstep) through launches that revisit each phase at
// two size classes that route differently, INA at two switches, a group's
// server and NUMA partitions, and Resets to other members, so a cached
// path list served under the wrong key, or kept across a Reset, moves
// bytes onto other links.
func TestRouteCacheKeys(t *testing.T) {
	g, gpus, thin, wide := decadeGraph()
	r := NewStaticRouter(g)
	const small, large = 1e4, 1e7
	ps, _ := r.Route(gpus[0], gpus[2], small)
	pl, _ := r.Route(gpus[0], gpus[2], large)
	if slices.Equal(ps.Edges, pl.Edges) {
		t.Fatal("decadeGraph routes 10^4 and 10^7 bytes alike; the size classes are not told apart")
	}
	cacheLockstep(t, g, []cacheLaunch{
		{"ring-small", gpus, ringLaunch(small)},
		{"ring-large", nil, ringLaunch(large)},
		{"ring-small-again", nil, ringLaunch(small)},
		{"ina-thin-small", nil, inaLaunch(thin, small, switchsim.ModeSync)},
		{"ina-wide-small", nil, inaLaunch(wide, small, switchsim.ModeSync)},
		{"ina-thin-large", nil, inaLaunch(thin, large, switchsim.ModeSync)},
		{"ina-wide-large-async", nil, inaLaunch(wide, large, switchsim.ModeAsync)},
		{"ina-thin-small-again", nil, inaLaunch(thin, small, switchsim.ModeSync)},
		{"hetero-thin-small", nil, heteroLaunch(thin, small)},
		{"hetero-wide-large", nil, heteroLaunch(wide, large)},
		{"hetero-wide-small", nil, heteroLaunch(wide, small)},
		{"hetero-thin-large", nil, heteroLaunch(thin, large)},
		{"server1-ring", gpus[2:], ringLaunch(small)},
		{"server1-hetero", nil, heteroLaunch(thin, large)},
		{"server1-ina", nil, inaLaunch(thin, small, switchsim.ModeSync)},
		{"across-ring", []topology.NodeID{gpus[0], gpus[3]}, ringLaunch(large)},
		{"across-hetero", nil, heteroLaunch(wide, small)},
		{"server0-hetero", gpus[:2], heteroLaunch(thin, large)},
		{"server0-ring", nil, ringLaunch(small)},
	})
	// On PCIe servers with two NUMA domains each, the server and NUMA
	// partitions of one group differ.
	pg := pcieTestbed()
	sw := pg.Switches()[0]
	cacheLockstep(t, pg, []cacheLaunch{
		{"pcie-hetero", pg.GPUs(), heteroLaunch(sw, small)},
		{"pcie-hetero-numa", nil, heteroNUMALaunch(sw, small)},
		{"pcie-hetero-again", nil, heteroLaunch(sw, small)},
		{"pcie-server0-hetero-numa", pg.ServerGPUs(0), heteroNUMALaunch(sw, small)},
	})
}

// The route cache stays warm across launches and empties on Reset, and a
// group launched on by a Comm under another StaticRouter routes afresh.
func TestRouteCacheFillsOncePerKey(t *testing.T) {
	g, gpus, thin, wide := decadeGraph()
	eng := sim.NewEngine()
	c := NewComm(netsim.New(g, eng), NewStaticRouter(g))
	grp := NewGroup(g, gpus)
	done := func() {}
	launch := func() {
		c.RingAllReduce(grp, 1e4, 1, done)
		c.INAAllReduce(grp, thin, 1e4, 1, switchsim.ModeSync, done)
		c.INAAllReduce(grp, wide, 1e4, 1, switchsim.ModeSync, done)
		c.INAAllReduce(grp, wide, 1e7, 1, switchsim.ModeSync, done)
		c.HeteroAllReduce(grp, thin, 1e4, 1, done)
		eng.Run()
	}
	launch()
	launch()
	// Ring, INA at (thin, 10^4), (wide, 10^4) and (wide, 10^7), and the
	// server partition's reduce and broadcast; the leaders' INA at thin is
	// in the leaders' group.
	if n := len(grp.routes.lists); n != 6 {
		t.Errorf("group caches %d path lists, want 6", n)
	}
	if n := len(grp.server.leaders.routes.lists); n != 1 {
		t.Errorf("leaders' group caches %d path lists, want 1", n)
	}
	other := NewComm(netsim.New(g, eng), NewStaticRouter(g))
	other.RingAllReduce(grp, 1e4, 1, done)
	eng.Run()
	if n := len(grp.routes.lists); n != 1 || grp.routes.router != other.static {
		t.Errorf("another router's launch left %d path lists of router %p, want 1 of %p", n, grp.routes.router, other.static)
	}
	grp.Reset(g, gpus[:2])
	if grp.routes != nil {
		t.Errorf("Reset kept %d path lists", len(grp.routes.lists))
	}
}
