package netsim

import (
	"math"
	"math/rand"
	"testing"

	"heroserve/internal/sim"
	"heroserve/internal/topology"
)

// chain builds a GPU chain with the given link bandwidths (bytes/s) and zero
// fixed latency, returning the network, engine, and node ids.
func chain(t *testing.T, bws ...float64) (*Network, *sim.Engine, []topology.NodeID) {
	t.Helper()
	g := topology.NewGraph()
	ids := make([]topology.NodeID, len(bws)+1)
	for i := range ids {
		ids[i] = g.AddNode(topology.Node{Kind: topology.KindGPU, Server: i})
	}
	for i, bw := range bws {
		g.AddEdge(ids[i], ids[i+1], topology.LinkEthernet, bw, 0)
	}
	eng := sim.NewEngine()
	return New(g, eng), eng, ids
}

func pathBetween(t *testing.T, n *Network, a, b topology.NodeID) topology.Path {
	t.Helper()
	sp := n.Graph().Dijkstra(a, topology.TransferCost(1), nil)
	p, ok := sp.PathTo(b)
	if !ok {
		t.Fatalf("no path %v -> %v", a, b)
	}
	return p
}

func TestSingleFlowFullBandwidth(t *testing.T) {
	n, eng, ids := chain(t, 100) // 100 B/s
	var doneAt sim.Time = -1
	n.StartFlow(pathBetween(t, n, ids[0], ids[1]), 1000, func(*Flow) { doneAt = eng.Now() })
	eng.Run()
	if math.Abs(doneAt-10) > 1e-9 {
		t.Errorf("flow finished at %g s, want 10 s (1000 B at 100 B/s)", doneAt)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	n, eng, ids := chain(t, 100)
	p := pathBetween(t, n, ids[0], ids[1])
	var t1, t2 sim.Time = -1, -1
	n.StartFlow(p, 1000, func(*Flow) { t1 = eng.Now() })
	n.StartFlow(p, 1000, func(*Flow) { t2 = eng.Now() })
	eng.Run()
	// Both at 50 B/s until both finish at 20 s.
	if math.Abs(t1-20) > 1e-9 || math.Abs(t2-20) > 1e-9 {
		t.Errorf("flows finished at %g and %g, want both 20", t1, t2)
	}
}

func TestDepartureSpeedsUpSurvivor(t *testing.T) {
	n, eng, ids := chain(t, 100)
	p := pathBetween(t, n, ids[0], ids[1])
	var tShort, tLong sim.Time = -1, -1
	n.StartFlow(p, 500, func(*Flow) { tShort = eng.Now() })
	n.StartFlow(p, 1000, func(*Flow) { tLong = eng.Now() })
	eng.Run()
	// Shared at 50 B/s: short finishes at 10 s. Long has 500 B left, now at
	// 100 B/s: finishes at 15 s.
	if math.Abs(tShort-10) > 1e-9 {
		t.Errorf("short flow at %g, want 10", tShort)
	}
	if math.Abs(tLong-15) > 1e-9 {
		t.Errorf("long flow at %g, want 15", tLong)
	}
}

func TestLateArrivalSlowsDown(t *testing.T) {
	n, eng, ids := chain(t, 100)
	p := pathBetween(t, n, ids[0], ids[1])
	var tFirst sim.Time = -1
	n.StartFlow(p, 1000, func(*Flow) { tFirst = eng.Now() })
	eng.Schedule(5, func() {
		n.StartFlow(p, 10000, nil)
	})
	eng.Run()
	// First flow: 500 B in [0,5] at 100 B/s, then 500 B at 50 B/s = 10 s
	// more => finishes at 15 s.
	if math.Abs(tFirst-15) > 1e-9 {
		t.Errorf("first flow at %g, want 15", tFirst)
	}
}

func TestMaxMinBottleneck(t *testing.T) {
	// Classic max-min example: link L1 (cap 100) carries flows A and B;
	// link L2 (cap 30) carries only B. B is frozen at 30 by L2; A gets 70.
	n, eng, ids := chain(t, 100, 30)
	pa := pathBetween(t, n, ids[0], ids[1]) // L1 only
	pb := pathBetween(t, n, ids[0], ids[2]) // L1 + L2
	fa := n.StartFlow(pa, 1e6, nil)
	fb := n.StartFlow(pb, 1e6, nil)
	// Rates are assigned synchronously at start.
	if math.Abs(fa.Rate()-70) > 1e-9 {
		t.Errorf("flow A rate = %g, want 70", fa.Rate())
	}
	if math.Abs(fb.Rate()-30) > 1e-9 {
		t.Errorf("flow B rate = %g, want 30", fb.Rate())
	}
	eng.Run()
}

func TestFixedLatencyAppended(t *testing.T) {
	g := topology.NewGraph()
	a := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 0})
	b := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 1})
	g.AddEdge(a, b, topology.LinkEthernet, 100, 0.5) // 0.5 s fixed latency
	eng := sim.NewEngine()
	n := New(g, eng)
	var doneAt sim.Time = -1
	n.StartFlow(pathBetween(t, n, a, b), 100, func(*Flow) { doneAt = eng.Now() })
	eng.Run()
	if math.Abs(doneAt-1.5) > 1e-9 {
		t.Errorf("done at %g, want 1.5 (1 s serialization + 0.5 s latency)", doneAt)
	}
}

func TestZeroEdgePathCompletesImmediately(t *testing.T) {
	n, eng, ids := chain(t, 100)
	self := topology.Path{Nodes: []topology.NodeID{ids[0]}}
	ran := false
	n.StartFlow(self, 12345, func(*Flow) { ran = true })
	eng.Run()
	if !ran {
		t.Error("self-path flow never completed")
	}
	if eng.Now() != 0 {
		t.Errorf("self-path flow took %g s, want 0", eng.Now())
	}
}

func TestZeroSizeFlow(t *testing.T) {
	n, eng, ids := chain(t, 100)
	ran := false
	n.StartFlow(pathBetween(t, n, ids[0], ids[1]), 0, func(*Flow) { ran = true })
	eng.Run()
	if !ran {
		t.Error("zero-size flow never completed")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	n, _, ids := chain(t, 100)
	defer func() {
		if recover() == nil {
			t.Error("negative size did not panic")
		}
	}()
	n.StartFlow(pathBetween(t, n, ids[0], ids[1]), -1, nil)
}

// TestStartGroupPanicsOnEmpty: a group without flows would never complete,
// so starting one is a caller bug.
func TestStartGroupPanicsOnEmpty(t *testing.T) {
	n, _, _ := chain(t, 100)
	defer func() {
		if recover() == nil {
			t.Error("empty group did not panic")
		}
	}()
	n.StartGroup(nil, 1, Inline, func() {})
}

func TestCancelFlow(t *testing.T) {
	n, eng, ids := chain(t, 100)
	p := pathBetween(t, n, ids[0], ids[1])
	ran := false
	f := n.StartFlow(p, 1000, func(*Flow) { ran = true })
	var otherDone sim.Time = -1
	n.StartFlow(p, 1000, func(*Flow) { otherDone = eng.Now() })
	eng.Schedule(5, func() { n.CancelFlow(f) })
	eng.Run()
	if ran {
		t.Error("cancelled flow's callback ran")
	}
	// Other flow: 250 B in [0,5] at 50 B/s, then 750 B at 100 B/s = 12.5 s.
	if math.Abs(otherDone-12.5) > 1e-9 {
		t.Errorf("surviving flow at %g, want 12.5", otherDone)
	}
	// Double cancel is a no-op.
	n.CancelFlow(f)
	n.CancelFlow(nil)
}

func TestTelemetry(t *testing.T) {
	n, eng, ids := chain(t, 100)
	p := pathBetween(t, n, ids[0], ids[1])
	eid := p.Edges[0]
	f := n.StartFlow(p, 1000, nil)
	if got := n.EdgeRate(eid); math.Abs(got-100) > 1e-9 {
		t.Errorf("EdgeRate = %g, want 100", got)
	}
	if got := n.EdgeUtilization(eid); math.Abs(got-1) > 1e-9 {
		t.Errorf("EdgeUtilization = %g, want 1", got)
	}
	if got := n.AvailableBW(eid); got != 0 {
		t.Errorf("AvailableBW = %g, want 0", got)
	}
	_ = f
	eng.Run()
	if got := n.BytesCarried(eid); math.Abs(got-1000) > 1e-6 {
		t.Errorf("BytesCarried = %g, want 1000", got)
	}
	if n.ActiveFlows() != 0 {
		t.Errorf("ActiveFlows = %d after drain", n.ActiveFlows())
	}
}

func TestSyncAvailable(t *testing.T) {
	n, _, ids := chain(t, 100)
	p := pathBetween(t, n, ids[0], ids[1])
	n.StartFlow(p, 1e6, nil)
	n.SyncAvailable()
	if got := n.Graph().Edge(p.Edges[0]).Available; got != 0 {
		t.Errorf("synced Available = %g, want 0", got)
	}
}

// Property: under any sequence of flow starts on random paths, (1) no link
// ever carries more than its capacity, (2) every flow eventually completes,
// and (3) total bytes carried on each link equals the sum of sizes of flows
// that traversed it.
func TestQuickConservationAndCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		g := topology.Testbed()
		eng := sim.NewEngine()
		n := New(g, eng)
		gpus := g.GPUs()
		m := g.NewMatrix(gpus, 1<<20, nil)

		type rec struct{ path topology.Path }
		wantBytes := make([]float64, g.NumEdges())
		completed := 0
		total := rng.Intn(30) + 5
		for i := 0; i < total; i++ {
			a := gpus[rng.Intn(len(gpus))]
			b := gpus[rng.Intn(len(gpus))]
			if a == b {
				completed++ // self flows complete trivially; skip
				continue
			}
			p, ok := m.PathBetween(a, b)
			if !ok {
				t.Fatal("unreachable GPUs in testbed")
			}
			size := int64(rng.Intn(1<<22) + 1)
			for _, eid := range p.Edges {
				wantBytes[eid] += float64(size)
			}
			at := sim.Time(rng.Float64() * 0.01)
			eng.Schedule(at, func() {
				n.StartFlow(p, size, func(*Flow) { completed++ })
			})
		}
		// Capacity check at every event boundary via a monitor event chain.
		var check func()
		check = func() {
			for i := 0; i < g.NumEdges(); i++ {
				eid := topology.EdgeID(i)
				if n.EdgeRate(eid) > g.Edge(eid).Capacity*(1+1e-9) {
					t.Fatalf("link %d oversubscribed: %g > %g", i, n.EdgeRate(eid), g.Edge(eid).Capacity)
				}
			}
			if n.ActiveFlows() > 0 {
				eng.After(1e-4, check)
			}
		}
		eng.Schedule(0, check)
		eng.Run()

		if completed != total {
			t.Fatalf("trial %d: %d/%d flows completed", trial, completed, total)
		}
		for i := range wantBytes {
			got := n.BytesCarried(topology.EdgeID(i))
			if math.Abs(got-wantBytes[i]) > 1+wantBytes[i]*1e-6 {
				t.Fatalf("trial %d: link %d carried %g bytes, want %g", trial, i, got, wantBytes[i])
			}
		}
	}
}

func BenchmarkManyConcurrentFlows(b *testing.B) {
	g := topology.Pod2Tracks(6)
	gpus := g.GPUs()
	m := g.NewMatrix(gpus, 1<<20, nil)
	rng := rand.New(rand.NewSource(3))
	type pair struct{ p topology.Path }
	paths := make([]topology.Path, 0, 64)
	for len(paths) < 64 {
		a := gpus[rng.Intn(len(gpus))]
		bn := gpus[rng.Intn(len(gpus))]
		if a == bn {
			continue
		}
		if p, ok := m.PathBetween(a, bn); ok {
			paths = append(paths, p)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		n := New(g, eng)
		for j, p := range paths {
			size := int64(1<<20 + j*1000)
			eng.Schedule(sim.Time(j)*1e-5, func() { n.StartFlow(p, size, nil) })
		}
		eng.Run()
	}
}
