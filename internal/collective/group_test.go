package collective

import (
	"math/rand"
	"slices"
	"testing"

	"heroserve/internal/netsim"
	"heroserve/internal/sim"
	"heroserve/internal/topology"
)

// groupTopologies are the graphs the prepared-group tests run on: NVLink
// servers behind two tiers, an 8-track pod, and PCIe servers with two NUMA
// domains each.
var groupTopologies = []struct {
	name  string
	build func() *topology.Graph
}{
	{"testbed", topology.Testbed},
	{"pod8-4", func() *topology.Graph { return topology.Pod8Tracks(4) }},
	{"pcie", pcieTestbed},
}

// randomMembers draws a group of 2 or more distinct GPUs, shuffled.
func randomMembers(rng *rand.Rand, gpus []topology.NodeID) []topology.NodeID {
	members := slices.Clone(gpus)
	rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	return members[:2+rng.Intn(len(members)-1)]
}

// TestNewGroupMatchesPartitions: a group prepared from shuffled members
// holds the members sorted, the ring order ringOrder gives, and the server
// and NUMA parts serverLeaders and numaLeaders give, and each partition's
// leader group is the group of its parts' first members (none for a
// single part).
func TestNewGroupMatchesPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, topo := range groupTopologies {
		g := topo.build()
		for trial := 0; trial < 100; trial++ {
			members := randomMembers(rng, g.GPUs())
			orig := slices.Clone(members)
			grp := NewGroup(g, members)
			if !slices.Equal(members, orig) {
				t.Fatalf("%s: NewGroup reordered its input", topo.name)
			}
			sorted := slices.Clone(members)
			slices.Sort(sorted)
			if !slices.Equal(grp.Members(), sorted) || grp.Size() != len(members) {
				t.Fatalf("%s: members %v, want %v", topo.name, grp.Members(), sorted)
			}
			if want := ringOrder(g, members, nil); !slices.Equal(grp.Ring(), want) {
				t.Fatalf("%s: ring %v, want %v", topo.name, grp.Ring(), want)
			}
			for _, by := range []struct {
				name string
				part *partition
				want [][]topology.NodeID
			}{
				{"server", &grp.server, serverLeaders(g, members)},
				{"numa", grp.numa, numaLeaders(g, members)},
			} {
				if !slices.EqualFunc(by.part.parts, by.want, slices.Equal) {
					t.Fatalf("%s %s parts of %v = %v, want %v", topo.name, by.name, members, by.part.parts, by.want)
				}
				var leaders, got []topology.NodeID
				intra := 0
				for _, part := range by.want {
					leaders = append(leaders, part[0])
					intra += len(part) - 1
				}
				if len(by.want) == 1 {
					leaders = nil // one part has no inter-part phase
				}
				if by.part.leaders != nil {
					got = by.part.leaders.Members()
				}
				if !slices.Equal(got, leaders) || by.part.intraFlows != intra {
					t.Fatalf("%s %s: leaders %v with %d intra flows, want %v with %d",
						topo.name, by.name, got, by.part.intraFlows, leaders, intra)
				}
			}
		}
	}
}

// groupRun is what one all-reduce leaves behind: its completion time, the
// op counters and the bytes every edge carried.
type groupRun struct {
	doneAt   sim.Time
	counters Counters
	carried  []float64
}

// runOnGroup runs one all-reduce of the scheme (or the NUMA-aware
// heterogeneous one) on a fresh network over the topology.
func runOnGroup(t *testing.T, build func() *topology.Graph, members []topology.NodeID, scheme Scheme, numa bool) groupRun {
	t.Helper()
	g := build()
	eng := sim.NewEngine()
	c := NewComm(netsim.New(g, eng), NewStaticRouter(g))
	carried := linkBytes(t, c.Network())
	grp := NewGroup(g, members)
	sw, _, ok := BestAggSwitch(g, c.Router(), grp, 1<<20)
	if !ok {
		t.Fatal("no aggregation switch")
	}
	run := groupRun{doneAt: -1}
	done := func() { run.doneAt = eng.Now() }
	if numa {
		c.HeteroNUMAAllReduce(grp, sw, 1<<20, 2, done)
	} else {
		c.AllReduce(scheme, grp, sw, 1<<20, 2, nil, done)
	}
	eng.Run()
	if run.doneAt < 0 {
		t.Fatal("all-reduce never completed")
	}
	run.counters = c.Counters()
	for i := 0; i < g.NumEdges(); i++ {
		run.carried = append(run.carried, carried(topology.EdgeID(i)))
	}
	return run
}

// TestGroupOrderDoesNotChangeTheRun runs every scheme on a group prepared
// from shuffled members and on one prepared from the same members sorted:
// completion time, counters and per-edge bytes agree bit for bit.
func TestGroupOrderDoesNotChangeTheRun(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, topo := range groupTopologies {
		gpus := topo.build().GPUs()
		for trial := 0; trial < 8; trial++ {
			shuffled := randomMembers(rng, gpus)
			sorted := slices.Clone(shuffled)
			slices.Sort(sorted)
			for _, tc := range []struct {
				scheme Scheme
				numa   bool
			}{{SchemeRing, false}, {SchemeINASync, false}, {SchemeINAAsync, false}, {SchemeHetero, false}, {SchemeHetero, true}} {
				a := runOnGroup(t, topo.build, shuffled, tc.scheme, tc.numa)
				b := runOnGroup(t, topo.build, sorted, tc.scheme, tc.numa)
				if a.doneAt != b.doneAt || a.counters != b.counters || !slices.Equal(a.carried, b.carried) {
					t.Fatalf("%s %v (numa %v) on %v: shuffled run (%g s, %+v) differs from sorted run (%g s, %+v)",
						topo.name, tc.scheme, tc.numa, shuffled, a.doneAt, a.counters, b.doneAt, b.counters)
				}
			}
		}
	}
}

// TestHeteroOpRecycledAcrossOverlappingOps: heterogeneous all-reduces in
// flight together each keep their own op until their broadcast starts, and
// all of them finish, on one server and across servers.
func TestHeteroOpRecycledAcrossOverlappingOps(t *testing.T) {
	c, eng, g := newComm(t)
	groups := []*Group{
		NewGroup(g, g.ServerGPUs(0)),
		NewGroup(g, g.GPUs()),
		NewGroup(g, []topology.NodeID{g.ServerGPUs(1)[0], g.ServerGPUs(2)[0]}),
	}
	sw := g.Switches()[0]
	completed := make([]int, len(groups))
	for round := 0; round < 3; round++ {
		for i, grp := range groups {
			c.HeteroAllReduce(grp, sw, 1<<20, 2, func() { completed[i]++ })
		}
		eng.Run()
	}
	for i, n := range completed {
		if n != 3 {
			t.Errorf("group %d completed %d/3 ops", i, n)
		}
	}
	if got := c.Counters().HeteroOps; got != 9 {
		t.Errorf("HeteroOps = %d, want 9", got)
	}
	if got := c.Counters().INASyncOps; got != 6 {
		t.Errorf("INASyncOps = %d, want 6 (the cross-server groups' leader phases)", got)
	}
}
