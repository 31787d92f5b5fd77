package netsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"heroserve/internal/sim"
	"heroserve/internal/telemetry"
	"heroserve/internal/topology"
)

// The differential harness runs the reference allocator (global
// water-filling fixed point, reference heap engine) and the fast path
// (incremental component water-filling, fast engine) through one and the
// same randomized script and locksteps them event by event, requiring
// BIT-identical state throughout: the clock, every flow's rate and
// remaining bytes after every reallocation, every link's aggregate rate and
// link_bytes_total counter (telemetry is armed on both), and the exact
// completion order.
//
// Scripts mix flow add/cancel storms, link degrade/blackout/recovery
// mid-flight, and a periodic daemon monitor — the operations the serving
// stack actually performs against the network.

type netOp struct {
	at   sim.Time
	kind int // 0 = start, 1 = cancel, 2 = link scale
	path int // start: index into the path table
	size int64
	pick int     // cancel: pseudo-index into flows created so far
	eid  int     // link scale: pseudo-index into edges
	frac float64 // link scale
}

// genNetScript pre-generates ops on a coarse time grid (collisions wanted).
func genNetScript(rng *rand.Rand, nOps, nPaths, horizon int) []netOp {
	ops := make([]netOp, nOps)
	for i := range ops {
		op := &ops[i]
		op.at = sim.Time(rng.Intn(horizon*16)) / 16.0
		switch r := rng.Intn(10); {
		case r < 6: // start storm-heavy mix
			op.kind = 0
			op.path = rng.Intn(nPaths)
			op.size = int64(rng.Intn(1<<22) + 1)
			if rng.Intn(8) == 0 {
				op.size = int64(rng.Intn(1<<26) + 1) // occasional elephant
			}
			if rng.Intn(64) == 0 {
				op.size = 0 // zero-size: latency-only delivery path
			}
		case r < 8:
			op.kind = 1
			op.pick = rng.Int()
		default:
			op.kind = 2
			op.eid = rng.Int()
			op.frac = []float64{0, 0, 0.1, 0.25, 0.5, 1, 1}[rng.Intn(7)]
		}
	}
	return ops
}

type netRun struct {
	eng     *sim.Engine
	net     *Network
	created []*Flow
	idx     map[*Flow]int
	// completion log: (creation index, timestamp bits)
	doneIdx []int
	doneAt  []uint64
}

// install schedules every op and a daemon monitor on the run's engine.
func (r *netRun) install(ops []netOp, paths []topology.Path, nEdges int) {
	r.idx = make(map[*Flow]int)
	for i := range ops {
		op := ops[i]
		r.eng.Schedule(op.at, func() {
			switch op.kind {
			case 0:
				f := r.net.StartFlow(paths[op.path], op.size, func(f *Flow) {
					r.doneIdx = append(r.doneIdx, r.idx[f])
					r.doneAt = append(r.doneAt, math.Float64bits(r.eng.Now()))
				})
				r.idx[f] = len(r.created)
				r.created = append(r.created, f)
			case 1:
				if len(r.created) > 0 {
					r.net.CancelFlow(r.created[op.pick%len(r.created)])
				}
			case 2:
				r.net.SetLinkScale(topology.EdgeID(op.eid%nEdges), op.frac)
			}
		})
	}
	// Daemon monitor: polls link state every 50 ms while work remains, the
	// way the online scheduler's refresh loop does. Runs on daemon events so
	// it cannot keep the simulation alive by itself.
	var tick func()
	tick = func() {
		for e := 0; e < nEdges; e++ {
			_ = r.net.EdgeUtilization(topology.EdgeID(e))
		}
		if r.eng.PendingWork() > 0 {
			r.eng.AfterDaemon(0.05, tick)
		}
	}
	r.eng.AfterDaemon(0.05, tick)
}

// compareState requires bit-identical observable network state.
func compareState(t *testing.T, step int, a, b *netRun, nEdges int) {
	t.Helper()
	if x, y := a.eng.Now(), b.eng.Now(); math.Float64bits(x) != math.Float64bits(y) {
		t.Fatalf("step %d: Now ref=%g fast=%g", step, x, y)
	}
	if x, y := a.net.ActiveFlows(), b.net.ActiveFlows(); x != y {
		t.Fatalf("step %d: ActiveFlows ref=%d fast=%d", step, x, y)
	}
	if len(a.created) != len(b.created) {
		t.Fatalf("step %d: created ref=%d fast=%d", step, len(a.created), len(b.created))
	}
	for i := range a.created {
		fa, fb := a.created[i], b.created[i]
		if math.Float64bits(fa.Rate()) != math.Float64bits(fb.Rate()) {
			t.Fatalf("step %d: flow %d rate ref=%g fast=%g", step, i, fa.Rate(), fb.Rate())
		}
		if math.Float64bits(fa.Remaining()) != math.Float64bits(fb.Remaining()) {
			t.Fatalf("step %d: flow %d remaining ref=%g fast=%g", step, i, fa.Remaining(), fb.Remaining())
		}
	}
	for e := 0; e < nEdges; e++ {
		eid := topology.EdgeID(e)
		if x, y := a.net.EdgeRate(eid), b.net.EdgeRate(eid); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("step %d: EdgeRate[%d] ref=%g fast=%g", step, e, x, y)
		}
		if x, y := a.net.tel.linkBytes[e].Value(), b.net.tel.linkBytes[e].Value(); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("step %d: link_bytes_total[%d] ref=%g fast=%g", step, e, x, y)
		}
	}
	if len(a.doneIdx) != len(b.doneIdx) {
		t.Fatalf("step %d: completions ref=%d fast=%d", step, len(a.doneIdx), len(b.doneIdx))
	}
	for k := range a.doneIdx {
		if a.doneIdx[k] != b.doneIdx[k] || a.doneAt[k] != b.doneAt[k] {
			t.Fatalf("step %d: completion[%d] ref=(%d,%x) fast=(%d,%x)", step, k,
				a.doneIdx[k], a.doneAt[k], b.doneIdx[k], b.doneAt[k])
		}
	}
}

// buildPaths returns a deterministic table of GPU-to-GPU paths over g.
func buildPaths(t testing.TB, g *topology.Graph, rng *rand.Rand, n int) []topology.Path {
	t.Helper()
	gpus := g.GPUs()
	m := g.NewTrees(gpus, 1<<20, nil).Matrix(gpus)
	paths := make([]topology.Path, 0, n)
	for guard := 0; len(paths) < n && guard < n*50; guard++ {
		a := gpus[rng.Intn(len(gpus))]
		b := gpus[rng.Intn(len(gpus))]
		if a == b {
			continue
		}
		if p, ok := m.PathBetween(a, b); ok {
			paths = append(paths, p)
		}
	}
	if len(paths) == 0 {
		t.Fatal("no usable paths")
	}
	return paths
}

func runDifferential(t *testing.T, mkGraph func() *topology.Graph, seed int64, nOps int,
	mkRef func(*topology.Graph, *sim.Engine) (*sim.Engine, *Network),
	mkFast func(*topology.Graph, *sim.Engine) (*sim.Engine, *Network)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ga, gb := mkGraph(), mkGraph()
	paths := buildPaths(t, ga, rng, 48)
	pathsB := make([]topology.Path, len(paths))
	copy(pathsB, paths) // same edge ids: graphs are built identically
	ops := genNetScript(rng, nOps, len(paths), 30)

	ref := &netRun{}
	ref.eng, ref.net = mkRef(ga, nil)
	fast := &netRun{}
	fast.eng, fast.net = mkFast(gb, nil)
	ref.net.SetTelemetry(telemetry.New())
	fast.net.SetTelemetry(telemetry.New())
	nEdges := ga.NumEdges()
	ref.install(ops, paths, nEdges)
	fast.install(ops, pathsB, nEdges)

	step := 0
	for {
		ra, rb := ref.eng.PendingWork() > 0, fast.eng.PendingWork() > 0
		if ra != rb {
			t.Fatalf("step %d: PendingWork>0 ref=%v fast=%v", step, ra, rb)
		}
		if !ra {
			break
		}
		sa, sb := ref.eng.Step(), fast.eng.Step()
		if sa != sb {
			t.Fatalf("step %d: Step ref=%v fast=%v", step, sa, sb)
		}
		step++
		compareState(t, step, ref, fast, nEdges)
		if !sa {
			break
		}
	}
	if len(ref.doneIdx) == 0 {
		t.Fatal("script completed no flows")
	}
	t.Logf("seed %d: %d steps, %d flows created, %d completed", seed, step, len(ref.created), len(ref.doneIdx))
}

// TestDifferentialNetsim is the headline equivalence proof: >= 3 seeds x
// >= 10k operations on two topologies, reference-on-reference vs
// fast-on-fast, exact agreement at every event.
func TestDifferentialNetsim(t *testing.T) {
	type combo struct {
		name    string
		mkGraph func() *topology.Graph
		seed    int64
		ops     int
	}
	combos := []combo{
		{"testbed/seed=1", topology.Testbed, 1, 10000},
		{"testbed/seed=2", topology.Testbed, 2, 10000},
		{"testbed/seed=3", topology.Testbed, 3, 10000},
		{"pod2/seed=4", func() *topology.Graph { return topology.Pod2Tracks(4) }, 4, 10000},
	}
	if testing.Short() {
		combos = combos[:3]
	}
	for _, c := range combos {
		c := c
		t.Run(c.name, func(t *testing.T) {
			runDifferential(t, c.mkGraph, c.seed, c.ops,
				func(g *topology.Graph, _ *sim.Engine) (*sim.Engine, *Network) {
					eng := sim.NewReferenceEngine()
					return eng, NewReference(g, eng)
				},
				func(g *topology.Graph, _ *sim.Engine) (*sim.Engine, *Network) {
					eng := sim.NewEngine()
					return eng, New(g, eng)
				})
		})
	}
}

// TestDifferentialNetsimCrossEngines isolates each axis: the fast allocator
// on the reference engine, and the reference allocator on the fast engine,
// must both match the all-reference baseline too.
func TestDifferentialNetsimCrossEngines(t *testing.T) {
	cases := []struct {
		name   string
		mkFast func(*topology.Graph, *sim.Engine) (*sim.Engine, *Network)
	}{
		{"fast-netsim/ref-engine", func(g *topology.Graph, _ *sim.Engine) (*sim.Engine, *Network) {
			eng := sim.NewReferenceEngine()
			return eng, New(g, eng)
		}},
		{"ref-netsim/fast-engine", func(g *topology.Graph, _ *sim.Engine) (*sim.Engine, *Network) {
			eng := sim.NewEngine()
			return eng, NewReference(g, eng)
		}},
	}
	nOps := 4000
	if testing.Short() {
		nOps = 1500
	}
	for i, c := range cases {
		c, i := c, i
		t.Run(c.name, func(t *testing.T) {
			runDifferential(t, topology.Testbed, int64(100+i), nOps,
				func(g *topology.Graph, _ *sim.Engine) (*sim.Engine, *Network) {
					eng := sim.NewReferenceEngine()
					return eng, NewReference(g, eng)
				},
				c.mkFast)
		})
	}
}

// TestFastPathSteadyStateAllocs pins the fast path's allocation claim: once
// flows are in steady state, a reallocation triggered by link rescaling
// performs no heap allocation at all, neither in netsim nor in the engine,
// and neither do the path classes of flows that come and go.
func TestFastPathSteadyStateAllocs(t *testing.T) {
	g := topology.Testbed()
	eng := sim.NewEngine()
	n := New(g, eng)
	rng := rand.New(rand.NewSource(5))
	paths := buildPaths(t, g, rng, 16)
	for i, p := range paths {
		n.StartFlow(p, int64(1<<30+i), nil)
	}
	eid := paths[0].Edges[0]
	// Warm up scratch growth and the engine's window.
	n.SetLinkScale(eid, 0.5)
	n.SetLinkScale(eid, 1)
	perOp := testing.AllocsPerRun(200, func() {
		n.SetLinkScale(eid, 0.5)
		n.SetLinkScale(eid, 1)
	})
	// Each SetLinkScale re-scans all live path classes and re-arms the
	// network's one completion timer: one reschedule per call, two calls per
	// run. The timer Event is reused and the fast engine queues it by value,
	// so nothing may allocate.
	if perOp != 0 {
		t.Errorf("steady-state reallocation allocates %.1f objects per op, want 0", perOp)
	}

	// A shared-path population: 32 flows in four path classes. A flow that
	// joins a class and one that builds (and then frees) its own must both
	// come and go without allocating once the network is warm. A group flow
	// is recycled after it delivers, so start-to-delivery allocates nothing;
	// a StartFlow flow is the caller's, so start-and-cancel allocates that
	// one Flow and nothing else.
	eng = sim.NewEngine()
	n = New(g, eng)
	for i := 0; i < 32; i++ {
		n.StartFlow(paths[i%4], int64(1<<40+i), nil)
	}
	var own topology.Path // a path no standing flow is on
	for _, p := range paths[4:] {
		if !slices.ContainsFunc(paths[:4], func(q topology.Path) bool { return slices.Equal(p.Edges, q.Edges) }) {
			own = p
			break
		}
	}
	delivered := false
	done := func() { delivered = true }
	for _, c := range []struct {
		name string
		path topology.Path
	}{{"joins a class", paths[0]}, {"builds a class", own}} {
		probe := []topology.Path{c.path}
		deliver := func() {
			delivered = false
			n.StartGroup(probe, 1<<20, Inline, done)
			for !delivered {
				eng.Step()
			}
		}
		cancel := func() { n.CancelFlow(n.StartFlow(c.path, 1<<20, nil)) }
		deliver() // warm up scratch, free lists and the engine's window
		cancel()
		if got := testing.AllocsPerRun(200, deliver); got != 0 {
			t.Errorf("a group flow that %s allocates %.1f objects from start to delivery, want 0", c.name, got)
		}
		if got := testing.AllocsPerRun(200, cancel); got != 1 {
			t.Errorf("a flow that %s allocates %.1f objects from start to cancel, want 1 (the Flow)", c.name, got)
		}
	}
	if n.ActiveFlows() != 32 || n.classes != 5 {
		t.Errorf("%d flows in %d classes built, want 32 in 5", n.ActiveFlows(), n.classes)
	}
}
