package scheduler

import (
	"math"
	"math/rand"
	"testing"

	"heroserve/internal/collective"
	"heroserve/internal/netsim"
	"heroserve/internal/sim"
	"heroserve/internal/telemetry"
	"heroserve/internal/topology"
)

// twoPathGraph builds a graph with two disjoint equal-capacity routes
// between GPUs a and b, so the table has two genuinely alternative policies.
func twoPathGraph() (*topology.Graph, []topology.NodeID, []Policy) {
	g := topology.NewGraph()
	a := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 0})
	b := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 1})
	s1 := g.AddNode(topology.Node{Kind: topology.KindAccessSwitch, INASlots: 64})
	s2 := g.AddNode(topology.Node{Kind: topology.KindAccessSwitch, INASlots: 64})
	e1 := g.AddEdge(a, s1, topology.LinkEthernet, 1e9, 1e-6)
	e2 := g.AddEdge(s1, b, topology.LinkEthernet, 1e9, 1e-6)
	e3 := g.AddEdge(a, s2, topology.LinkEthernet, 1e9, 1e-6)
	e4 := g.AddEdge(s2, b, topology.LinkEthernet, 1e9, 1e-6)
	group := []topology.NodeID{a, b}
	policies := []Policy{
		{Scheme: collective.SchemeINASync, Switch: s1, Edges: []topology.EdgeID{e1, e2}, Label: "via-s1"},
		{Scheme: collective.SchemeINASync, Switch: s2, Edges: []topology.EdgeID{e3, e4}, Label: "via-s2"},
	}
	return g, group, policies
}

func TestSelectBalancesDisjointPolicies(t *testing.T) {
	g, group, policies := twoPathGraph()
	tb := NewTable(g, group, policies, DefaultConfig())
	counts := make([]int, 2)
	for i := 0; i < 100; i++ {
		counts[tb.Select(1<<20)]++
	}
	// Disjoint policies have zero penalty coupling: selection must
	// alternate and split evenly.
	if counts[0] != 50 || counts[1] != 50 {
		t.Errorf("selection counts = %v, want 50/50", counts)
	}
	sels := tb.Selections()
	if sels[0] != 50 || sels[1] != 50 {
		t.Errorf("Selections() = %v", sels)
	}
}

func TestSelectPrefersCheaperPolicy(t *testing.T) {
	g, group, policies := twoPathGraph()
	tb := NewTable(g, group, policies, DefaultConfig())
	// Pretend policy 0's links are already 90% utilized.
	tb.RefreshCost(func(e topology.EdgeID) float64 {
		if e == policies[0].Edges[0] {
			return 0.9
		}
		return 0
	})
	if got := tb.Cost(0); got != 0.9 {
		t.Fatalf("cost[0] = %g", got)
	}
	if got := tb.Select(1 << 10); got != 1 {
		t.Errorf("selected %d, want the unloaded policy 1", got)
	}
}

func TestEq17UpdatesWithPenalty(t *testing.T) {
	// Two policies sharing one of two links: penalty couples their costs.
	g := topology.NewGraph()
	a := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 0})
	b := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 1})
	s := g.AddNode(topology.Node{Kind: topology.KindAccessSwitch, INASlots: 4})
	shared := g.AddEdge(a, s, topology.LinkEthernet, 1e9, 0)
	own1 := g.AddEdge(s, b, topology.LinkEthernet, 1e9, 0)
	own2 := g.AddEdge(s, b, topology.LinkEthernet, 1e9, 0)
	policies := []Policy{
		{Scheme: collective.SchemeINASync, Switch: s, Edges: []topology.EdgeID{shared, own1}},
		{Scheme: collective.SchemeINASync, Switch: s, Edges: []topology.EdgeID{shared, own2}},
	}
	tb := NewTable(g, []topology.NodeID{a, b}, policies, DefaultConfig())
	// Static share: 1 of 2 edges overlap -> f = 0.5 both ways.
	if got := tb.Penalty(0, 1); got != 0.5 {
		t.Fatalf("initial penalty = %g, want 0.5", got)
	}
	const size = 100 << 20 // 100 MB over 1 GB/s, window 0.1 s -> delta = 1.0
	sel := tb.Select(size)
	if sel != 0 {
		t.Fatalf("tie should break to policy 0, got %d", sel)
	}
	d := float64(size) / (0.1 * 1e9)
	if math.Abs(tb.Cost(0)-d) > 1e-9 {
		t.Errorf("winner cost = %g, want %g", tb.Cost(0), d)
	}
	if math.Abs(tb.Cost(1)-d*0.5) > 1e-9 {
		t.Errorf("loser cost = %g, want %g (delta * f)", tb.Cost(1), d*0.5)
	}
}

func TestRefreshPenaltyEWMA(t *testing.T) {
	g, group, policies := twoPathGraph()
	cfg := Config{Gamma: 0.5, Window: 0.1}
	tb := NewTable(g, group, policies, cfg)
	if tb.Penalty(0, 1) != 0 {
		t.Fatalf("disjoint policies should start at zero penalty, got %g", tb.Penalty(0, 1))
	}
	// All-zero utilization: W falls back to static share (0 here); penalty
	// stays 0.
	tb.RefreshPenalty(func(topology.EdgeID) float64 { return 0 })
	if tb.Penalty(0, 1) != 0 {
		t.Error("penalty moved despite zero share")
	}
	// Make policy 1's edges half-loaded, no overlap -> W = 0 still.
	tb.RefreshPenalty(func(e topology.EdgeID) float64 { return 0.5 })
	if tb.Penalty(0, 1) != 0 {
		t.Error("penalty for disjoint policies should remain 0")
	}
}

func TestRefreshPenaltyWithOverlap(t *testing.T) {
	g := topology.NewGraph()
	a := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 0})
	b := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 1})
	s := g.AddNode(topology.Node{Kind: topology.KindAccessSwitch, INASlots: 4})
	shared := g.AddEdge(a, s, topology.LinkEthernet, 1e9, 0)
	own := g.AddEdge(s, b, topology.LinkEthernet, 1e9, 0)
	own2 := g.AddEdge(s, b, topology.LinkEthernet, 1e9, 0)
	policies := []Policy{
		{Edges: []topology.EdgeID{shared, own}},
		{Edges: []topology.EdgeID{shared, own2}},
	}
	tb := NewTable(g, []topology.NodeID{a, b}, policies, Config{Gamma: 1, Window: 0.1})
	// Utilization: shared link hot (0.8), own links cold (0.2):
	// W(0,1) = 0.8 / (0.8 + 0.2) = 0.8. Gamma=1 adopts W directly.
	tb.RefreshPenalty(func(e topology.EdgeID) float64 {
		if e == shared {
			return 0.8
		}
		return 0.2
	})
	if got := tb.Penalty(0, 1); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("penalty = %g, want 0.8", got)
	}
}

func TestNewTableValidation(t *testing.T) {
	g, group, policies := twoPathGraph()
	for _, fn := range []func(){
		func() { NewTable(g, group, nil, DefaultConfig()) },
		func() { NewTable(g, group, policies, Config{Gamma: 0, Window: 1}) },
		func() { NewTable(g, group, policies, Config{Gamma: 2, Window: 1}) },
		func() { NewTable(g, group, policies, Config{Gamma: 0.5, Window: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad table accepted")
				}
			}()
			fn()
		}()
	}
}

func TestBuildPoliciesTestbed(t *testing.T) {
	g := topology.Testbed()
	r := collective.NewStaticRouter(g)
	// Group: all of servers 0 and 1 (8 GPUs, co-located pairs exist).
	group := append(append([]topology.NodeID{}, g.ServerGPUs(0)...), g.ServerGPUs(1)...)
	ps := BuildPolicies(g, r, group, 1<<20, 2, true)
	var rings, inas, heteros int
	for _, p := range ps {
		switch p.Scheme {
		case collective.SchemeRing:
			rings++
			if p.Switch != -1 {
				t.Error("ring policy has a switch")
			}
		case collective.SchemeINASync:
			inas++
		case collective.SchemeHetero:
			heteros++
		}
		if len(p.Edges) == 0 {
			t.Errorf("policy %q has no edges", p.Label)
		}
		// Edges deduplicated and sorted.
		for i := 1; i < len(p.Edges); i++ {
			if p.Edges[i-1] >= p.Edges[i] {
				t.Errorf("policy %q edges not sorted/unique", p.Label)
			}
		}
	}
	if rings != 1 {
		t.Errorf("ring policies = %d, want 1", rings)
	}
	if inas != 2 {
		t.Errorf("INA policies = %d, want 2 (both switches)", inas)
	}
	if heteros != 2 {
		t.Errorf("hetero policies = %d, want 2", heteros)
	}
	// A hetero policy must touch fewer Ethernet edges than its INA sibling.
	ethEdges := func(p Policy) int {
		n := 0
		for _, e := range p.Edges {
			if g.Edge(e).Kind == topology.LinkEthernet {
				n++
			}
		}
		return n
	}
	var inaEth, hetEth int
	for _, p := range ps {
		switch p.Scheme {
		case collective.SchemeINASync:
			if inaEth == 0 {
				inaEth = ethEdges(p)
			}
		case collective.SchemeHetero:
			if hetEth == 0 {
				hetEth = ethEdges(p)
			}
		}
	}
	if hetEth >= inaEth {
		t.Errorf("hetero policy uses %d Ethernet edges, INA uses %d; want fewer", hetEth, inaEth)
	}
}

// TestBuildPoliciesLabelsUnique: a table's policy labels key the cost column
// of its policy-select trace instant, so they must be unique within the
// table. A map collapses a repeated label silently; the tracer's ordered
// argument list would write it twice. Every switch is a candidate here, and
// the groups cover one server, two half servers and two whole servers.
func TestBuildPoliciesLabelsUnique(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *topology.Graph
	}{
		{"testbed", topology.Testbed()},
		{"pod2", topology.Pod2Tracks(12)},
		{"pod8", topology.Pod8Tracks(16)},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := c.g
			r := collective.NewStaticRouter(g)
			tables := 0
			for s := 0; s+1 < g.NumServers(); s += 2 {
				a, b := g.ServerGPUs(s), g.ServerGPUs(s+1)
				for _, group := range [][]topology.NodeID{
					a,
					append(append([]topology.NodeID{}, a[:len(a)/2]...), b[:len(b)/2]...),
					append(append([]topology.NodeID{}, a...), b...),
				} {
					ps := BuildPolicies(g, r, group, 1<<20, 0, true)
					if len(ps) < 2 {
						t.Fatalf("group %v: %d policies, want a ring and INA candidates", group, len(ps))
					}
					seen := make(map[string]bool, len(ps))
					for _, p := range ps {
						if seen[p.Label] {
							t.Errorf("group %v: label %q repeats", group, p.Label)
						}
						seen[p.Label] = true
					}
					tables++
				}
			}
			if tables == 0 {
				t.Fatal("no groups checked")
			}
		})
	}
}

func TestBuildPoliciesNoHeteroForSpreadGroup(t *testing.T) {
	g := topology.Testbed()
	r := collective.NewStaticRouter(g)
	// One GPU per server: pre-reduction has nothing to reduce.
	group := []topology.NodeID{
		g.ServerGPUs(0)[0], g.ServerGPUs(1)[0], g.ServerGPUs(2)[0], g.ServerGPUs(3)[0],
	}
	for _, p := range BuildPolicies(g, r, group, 1<<20, 2, true) {
		if p.Scheme == collective.SchemeHetero {
			t.Error("hetero policy built for a fully spread group")
		}
	}
}

func TestControllerTickRefreshesFromNetwork(t *testing.T) {
	g, group, policies := twoPathGraph()
	eng := sim.NewEngine()
	net := netsim.New(g, eng)
	ctl := NewController(net, 0.01)
	tb := NewTable(g, group, policies, DefaultConfig())
	ctl.Register(tb)

	// Saturate policy 0's first link with a long flow.
	path := topology.Path{Nodes: []topology.NodeID{group[0], 2}, Edges: []topology.EdgeID{policies[0].Edges[0]}}
	net.StartGroup([]topology.Path{path}, 1<<30, 0, nil)
	ctl.Tick()
	if tb.Cost(0) <= tb.Cost(1) {
		t.Errorf("controller refresh: cost0=%g cost1=%g, want 0 hotter", tb.Cost(0), tb.Cost(1))
	}
	if ctl.Ticks() != 1 {
		t.Errorf("Ticks = %d", ctl.Ticks())
	}
}

func TestControllerStartStopsWhenIdle(t *testing.T) {
	g, group, policies := twoPathGraph()
	eng := sim.NewEngine()
	net := netsim.New(g, eng)
	ctl := NewController(net, 0.01)
	ctl.Register(NewTable(g, group, policies, DefaultConfig()))
	path := topology.Path{Nodes: []topology.NodeID{group[0], 2}, Edges: []topology.EdgeID{policies[0].Edges[0]}}
	net.StartGroup([]topology.Path{path}, 1<<24, 0, nil) // ~16.8 ms at 1 GB/s
	ctl.Start()
	ctl.Start() // idempotent
	eng.Run()   // must terminate: the loop stops when the network drains
	if ctl.Ticks() < 1 {
		t.Error("controller never ticked")
	}
}

func TestControllerBadInterval(t *testing.T) {
	g, _, _ := twoPathGraph()
	eng := sim.NewEngine()
	net := netsim.New(g, eng)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewController(net, 0)
}

// Property-flavored check: costs never go negative and grow monotonically
// between refreshes under arbitrary selection traffic.
func TestCostsMonotoneBetweenRefreshes(t *testing.T) {
	g, group, policies := twoPathGraph()
	tb := NewTable(g, group, policies, DefaultConfig())
	prev := []float64{0, 0}
	for i := 0; i < 200; i++ {
		tb.Select(int64(1+i) << 12)
		for j := range prev {
			if tb.Cost(j) < prev[j]-1e-12 {
				t.Fatalf("cost %d decreased without refresh", j)
			}
			prev[j] = tb.Cost(j)
		}
	}
}

func TestControllerStallSkipsRefresh(t *testing.T) {
	g, group, policies := twoPathGraph()
	eng := sim.NewEngine()
	net := netsim.New(g, eng)
	ctl := NewController(net, 0.01)
	tb := NewTable(g, group, policies, DefaultConfig())
	ctl.Register(tb)

	// Saturate policy 0's first link, then stall the controller: the cost
	// table must keep its pre-stall view until the stall window passes.
	path := topology.Path{Nodes: []topology.NodeID{group[0], 2}, Edges: []topology.EdgeID{policies[0].Edges[0]}}
	net.StartGroup([]topology.Path{path}, 1<<31, 0, nil) // ~2.1 s at 1 GB/s, outlives the stall
	ctl.StallFor(1.0)
	if !ctl.Stalled() {
		t.Fatal("controller not stalled after StallFor")
	}
	ctl.Tick()
	if ctl.Ticks() != 0 || ctl.StalledTicks() != 1 {
		t.Fatalf("ticks=%d stalledTicks=%d, want 0/1", ctl.Ticks(), ctl.StalledTicks())
	}
	if tb.Cost(0) != tb.Cost(1) {
		t.Fatalf("stalled refresh still updated costs: %g vs %g", tb.Cost(0), tb.Cost(1))
	}

	// Overlapping stalls extend to the furthest deadline, never shrink.
	ctl.StallFor(0.5)
	eng.Post(0.9, func() {
		if !ctl.Stalled() {
			t.Error("stall window shrank")
		}
	})
	eng.Post(1.1, func() {
		if ctl.Stalled() {
			t.Error("stall window never expired")
		}
		ctl.Tick()
	})
	eng.Run()
	if ctl.Ticks() != 1 {
		t.Fatalf("post-stall tick did not refresh (ticks=%d)", ctl.Ticks())
	}
	if tb.Cost(0) <= tb.Cost(1) {
		t.Fatalf("post-stall refresh: cost0=%g cost1=%g, want 0 hotter", tb.Cost(0), tb.Cost(1))
	}
}

func TestControllerSwitchHealthPricesOut(t *testing.T) {
	g, group, policies := twoPathGraph()
	eng := sim.NewEngine()
	net := netsim.New(g, eng)
	ctl := NewController(net, 0.01)
	tb := NewTable(g, group, policies, DefaultConfig())
	ctl.Register(tb)

	sick := policies[0].Switch
	ctl.BindSwitchHealth(func(sw topology.NodeID) bool { return sw != sick })
	ctl.Tick()
	if !math.IsInf(tb.Cost(0), 1) {
		t.Fatalf("unhealthy switch policy cost %g, want +Inf", tb.Cost(0))
	}
	if math.IsInf(tb.Cost(1), 1) {
		t.Fatal("healthy switch policy also priced out")
	}

	// Recovery: the next refresh reprices the policy back to finite cost.
	ctl.BindSwitchHealth(func(topology.NodeID) bool { return true })
	ctl.Tick()
	if math.IsInf(tb.Cost(0), 1) {
		t.Fatal("recovered switch policy still +Inf")
	}
}

func TestRefreshCostDeadLinkInf(t *testing.T) {
	g, group, policies := twoPathGraph()
	tb := NewTable(g, group, policies, DefaultConfig())
	tb.RefreshCost(func(e topology.EdgeID) float64 {
		if e == policies[0].Edges[1] {
			return math.Inf(1) // blacked-out link
		}
		return 0.1
	})
	if !math.IsInf(tb.Cost(0), 1) {
		t.Fatalf("policy over dead link cost %g, want +Inf", tb.Cost(0))
	}
	idx := tb.Select(1 << 20)
	if idx != 1 {
		t.Fatalf("Select picked the dead policy (%d)", idx)
	}
}

// refreshPenaltyRef is Eq. 18 computed directly from the policies' edge
// lists, re-reading util for every (selected, other, edge) triple.
func refreshPenaltyRef(t *Table, util func(topology.EdgeID) float64) {
	n := len(t.Policies)
	for i := 0; i < n; i++ {
		sel := &t.Policies[i]
		in := make(map[topology.EdgeID]bool, len(sel.Edges))
		for _, e := range sel.Edges {
			in[e] = true
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			other := &t.Policies[j]
			var shared, total float64
			for _, e := range other.Edges {
				u := util(e)
				if math.IsInf(u, 1) {
					u = 1
				}
				total += u
				if in[e] {
					shared += u
				}
			}
			w := staticShare(sel, other)
			if total > 0 {
				w = shared / total
			}
			t.penalty[i][j] = (1-t.cfg.Gamma)*t.penalty[i][j] + t.cfg.Gamma*w
		}
	}
}

// testbedDecodeTable is the policy table of a testbed decode group: a V100
// server's four GPUs, as the online policy builds it.
func testbedDecodeTable() *Table {
	g := topology.Testbed()
	group := g.ServerGPUs(2)
	return NewTable(g, group, BuildPolicies(g, collective.NewStaticRouter(g), group, 1<<20, 1, true), DefaultConfig())
}

// TestRefreshPenaltyMatchesReference: the precomputed refresh reproduces the
// direct computation bit for bit over many ticks of random utilization,
// idle links and blacked-out (+Inf) links included.
func TestRefreshPenaltyMatchesReference(t *testing.T) {
	g, group, policies := twoPathGraph()
	overlap := append(policies, Policy{Edges: []topology.EdgeID{policies[0].Edges[0], policies[1].Edges[1], policies[0].Edges[0]}})
	for name, mk := range map[string]func() *Table{
		"testbed": testbedDecodeTable,
		"overlap": func() *Table { return NewTable(g, group, overlap, Config{Gamma: 0.3, Window: 0.1}) },
	} {
		fast, ref := mk(), mk()
		rng := rand.New(rand.NewSource(3))
		for tick := 0; tick < 200; tick++ {
			u := make(map[topology.EdgeID]float64)
			util := func(e topology.EdgeID) float64 {
				if v, ok := u[e]; ok {
					return v
				}
				var v float64
				switch r := rng.Intn(10); {
				case r == 0:
					v = math.Inf(1)
				case r < 4:
					v = 0
				default:
					v = rng.Float64()
				}
				u[e] = v
				return v
			}
			fast.RefreshPenalty(util)
			refreshPenaltyRef(ref, util)
			for i := range fast.penalty {
				for j := range fast.penalty[i] {
					if math.Float64bits(fast.penalty[i][j]) != math.Float64bits(ref.penalty[i][j]) {
						t.Fatalf("%s tick %d: penalty[%d][%d] = %v, reference %v", name, tick, i, j, fast.penalty[i][j], ref.penalty[i][j])
					}
				}
			}
		}
	}
}

func TestRefreshPenaltyAllocatesNothing(t *testing.T) {
	tb := testbedDecodeTable()
	util := func(e topology.EdgeID) float64 { return float64(e%7) / 7 }
	if allocs := testing.AllocsPerRun(100, func() { tb.RefreshPenalty(util) }); allocs != 0 {
		t.Errorf("RefreshPenalty allocs = %v, want 0", allocs)
	}
}

func BenchmarkRefreshPenalty(b *testing.B) {
	tb := testbedDecodeTable()
	util := func(e topology.EdgeID) float64 { return float64(e%7) / 7 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.RefreshPenalty(util)
	}
}

// podTables builds n policy tables on the 24-server 8-track pod, as the
// online policy would: group i is the last four GPUs of server i and the
// first four of server i+1, so every group crosses the fabric and the
// groups of neighbouring servers share uplinks.
func podTables(n int) (*topology.Graph, []*Table) {
	g := topology.Pod8Tracks(24)
	r := collective.NewStaticRouter(g)
	tables := make([]*Table, n)
	for i := range tables {
		a, b := g.ServerGPUs(i%24), g.ServerGPUs((i+1)%24)
		group := append(append([]topology.NodeID(nil), a[4:]...), b[:4]...)
		tables[i] = NewTable(g, group, BuildPolicies(g, r, group, 1<<20, 1, true), DefaultConfig())
	}
	return g, tables
}

// TestTickSnapshotMatchesDirectRefresh: a controller tick, which reads each
// distinct edge once into a snapshot shared by all tables, leaves every cost
// and penalty bit-identical to refreshing each table directly from
// net.EdgeUtilization, and prices out the same policies. Tables register
// before and after the first tick, one link is blacked out and another
// degraded, and selections move the costs between ticks.
func TestTickSnapshotMatchesDirectRefresh(t *testing.T) {
	g, tables := podTables(8)
	_, twins := podTables(8)
	eng := sim.NewEngine()
	net := netsim.New(g, eng)
	r := collective.NewStaticRouter(g)
	gpus := g.GPUs()
	for i := 0; i < 40; i++ {
		a, b := gpus[(i*37)%len(gpus)], gpus[(i*61+5)%len(gpus)]
		if p, ok := r.Route(a, b, 1<<30); ok && a != b {
			net.StartGroup([]topology.Path{p}, 1<<30, 0, nil)
		}
	}
	hot := tables[0].Policies[len(tables[0].Policies)-1].Edges
	net.SetLinkScale(hot[0], 0)             // blacked out: +Inf utilization
	net.SetLinkScale(hot[len(hot)-1], 0.25) // degraded

	hub := telemetry.New()
	ctl := NewController(net, 0.01)
	ctl.SetTelemetry(hub)
	sick := topology.NodeID(-1)
	for _, p := range tables[1].Policies {
		if p.Scheme.UsesINA() {
			sick = p.Switch
		}
	}
	healthy := func(sw topology.NodeID) bool { return sw != sick }
	ctl.BindSwitchHealth(healthy)
	reads := map[topology.EdgeID]int{}
	ctl.read = func(e topology.EdgeID) float64 {
		reads[e]++
		return net.EdgeUtilization(e)
	}

	var pricedOut float64
	direct := func(tb *Table) {
		util := net.EdgeUtilization
		tb.RefreshCost(util)
		tb.RefreshPenalty(util)
		for i, p := range tb.Policies {
			if p.Scheme.UsesINA() && p.Switch >= 0 && !healthy(p.Switch) {
				tb.cost[i] = math.Inf(1)
				pricedOut++
			}
		}
	}
	registered := 0
	for tick := 0; tick < 6; tick++ {
		// Half the tables join before the first tick, the rest one per tick.
		for registered < len(tables) && (registered < len(tables)/2 || registered < len(tables)/2+tick) {
			ctl.Register(tables[registered])
			registered++
		}
		clear(reads)
		ctl.Tick()
		distinct := map[topology.EdgeID]bool{}
		for i := 0; i < registered; i++ {
			direct(twins[i])
			for _, p := range tables[i].Policies {
				for _, e := range p.Edges {
					distinct[e] = true
				}
			}
		}
		if len(reads) != len(distinct) {
			t.Fatalf("tick %d read %d edges, want the %d distinct ones", tick, len(reads), len(distinct))
		}
		for e, n := range reads {
			if n != 1 || !distinct[e] {
				t.Fatalf("tick %d read edge %d %d times (registered: %v)", tick, e, n, distinct[e])
			}
		}
		for i := range tables {
			got, want := tables[i], twins[i]
			for j := range got.cost {
				if math.Float64bits(got.cost[j]) != math.Float64bits(want.cost[j]) {
					t.Fatalf("tick %d table %d: cost[%d] = %v, direct %v", tick, i, j, got.cost[j], want.cost[j])
				}
				for k := range got.penalty[j] {
					if math.Float64bits(got.penalty[j][k]) != math.Float64bits(want.penalty[j][k]) {
						t.Fatalf("tick %d table %d: penalty[%d][%d] = %v, direct %v", tick, i, j, k, got.penalty[j][k], want.penalty[j][k])
					}
				}
			}
			size := int64(1+tick+i) << 18
			got.Select(size)
			want.Select(size)
		}
		if v, _ := hub.Metrics.Value("scheduler_priced_out_total"); v != pricedOut {
			t.Fatalf("tick %d: priced out %v, direct %v", tick, v, pricedOut)
		}
	}
	if pricedOut == 0 {
		t.Fatal("no policy priced out: the test lost its unhealthy switch")
	}
	if !math.IsInf(tables[0].Cost(len(tables[0].Policies)-1), 1) {
		t.Fatal("the blacked-out link did not price its policy at +Inf")
	}
}

// BenchmarkControllerTick measures one controller refresh of 24 pod tables
// under background load.
func BenchmarkControllerTick(b *testing.B) {
	g, tables := podTables(24)
	net := netsim.New(g, sim.NewEngine())
	r := collective.NewStaticRouter(g)
	gpus := g.GPUs()
	for i := 0; i < 64; i++ {
		a, c := gpus[(i*37)%len(gpus)], gpus[(i*61+5)%len(gpus)]
		if p, ok := r.Route(a, c, 1<<30); ok && a != c {
			net.StartGroup([]topology.Path{p}, 1<<30, 0, nil)
		}
	}
	ctl := NewController(net, 0.05)
	for _, tb := range tables {
		ctl.Register(tb)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.Tick()
	}
}
