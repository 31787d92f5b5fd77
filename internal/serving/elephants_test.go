package serving

import (
	"math"
	"testing"

	"heroserve/internal/collective"
	"heroserve/internal/netsim"
	"heroserve/internal/sim"
	"heroserve/internal/telemetry"
	"heroserve/internal/topology"
)

// launchElephantsByRoute is the lane launcher before lanes routed into
// their own buffers, kept as the oracle: one closure shared by every lane,
// each transfer routed through Router.Route.
func launchElephantsByRoute(net *netsim.Network, router collective.Router, n int, bytes int64, horizon float64, seed int64) {
	gpus := net.Graph().GPUs()
	if len(gpus) < 2 || n <= 0 {
		return
	}
	eng := net.Engine()
	state := uint64(seed)*0x9e3779b97f4a7c15 + 1
	next := func(m int) int {
		state = state*2862933555777941757 + 3037000493
		return int((state >> 33) % uint64(m))
	}
	var launch func()
	launch = func() {
		if eng.Now() >= horizon {
			return
		}
		a := gpus[next(len(gpus))]
		b := a
		for b == a {
			b = gpus[next(len(gpus))]
		}
		if p, ok := router.Route(a, b, bytes); ok {
			net.StartGroup([]topology.Path{p}, bytes, netsim.Inline, launch)
		}
	}
	for i := 0; i < n; i++ {
		eng.Post(0, launch)
	}
}

// TestElephantLanesMatchRoute: lanes that route into their own buffers
// start the same transfers, in the same order, as lanes that route through
// Route. Every link carries bit-identical bytes at each checkpoint, and the
// runs process the same events and end at the same instant.
func TestElephantLanesMatchRoute(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *topology.Graph
		lanes   int
		horizon float64
	}{
		{"testbed", topology.Testbed(), 12, 2},
		{"pod8", topology.Pod8Tracks(24), 16, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const bytes = 256 << 20
			engA, engB := sim.NewEngine(), sim.NewEngine()
			lanes, oracle := netsim.New(tc.g, engA), netsim.New(tc.g, engB)
			telA, telB := telemetry.New(), telemetry.New()
			lanes.SetTelemetry(telA)
			oracle.SetTelemetry(telB)
			LaunchElephants(lanes, collective.NewStaticRouter(tc.g), tc.lanes, bytes, tc.horizon, 7)
			launchElephantsByRoute(oracle, collective.NewStaticRouter(tc.g), tc.lanes, bytes, tc.horizon, 7)
			var moved float64
			for _, at := range []sim.Time{tc.horizon / 4, tc.horizon / 2, tc.horizon, math.Inf(1)} {
				if math.IsInf(at, 1) {
					engA.Run()
					engB.Run()
				} else {
					engA.RunUntil(at)
					engB.RunUntil(at)
				}
				if engA.Now() != engB.Now() || engA.Processed() != engB.Processed() {
					t.Fatalf("at %v: lanes at t=%v after %d events, oracle at t=%v after %d", at, engA.Now(), engA.Processed(), engB.Now(), engB.Processed())
				}
				links := telA.Metrics.Children("link_bytes_total")
				if len(links) != tc.g.NumEdges() {
					t.Fatalf("%d link_bytes_total counters for %d edges", len(links), tc.g.NumEdges())
				}
				for _, link := range links {
					got, _ := telA.Metrics.Value("link_bytes_total", link...)
					want, _ := telB.Metrics.Value("link_bytes_total", link...)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("at %v: link %s carried %v bytes, oracle %v", at, link[0], got, want)
					}
					moved += got
				}
			}
			if moved == 0 || lanes.ActiveFlows() != 0 {
				t.Fatalf("moved %v bytes, %d flows left active", moved, lanes.ActiveFlows())
			}
		})
	}
}

// relaunchLane starts one elephant lane of 1 MiB transfers on g and runs it
// warm: every GPU's routing tree built and the lane's buffers at full size.
// Afterwards, every two engine steps are one transfer's completion and the
// next transfer's launch.
func relaunchLane(g *topology.Graph) *sim.Engine {
	eng := sim.NewEngine()
	net := netsim.New(g, eng)
	LaunchElephants(net, collective.NewStaticRouter(g), 1, 1<<20, math.Inf(1), 3)
	for i := 0; i < 100*len(g.GPUs()); i++ {
		eng.Step()
	}
	return eng
}

// TestElephantRelaunchAllocs pins a warm lane relaunch at zero allocations.
// On the pod the lane draws from 36k GPU pairs, far more than any route memo
// holds.
func TestElephantRelaunchAllocs(t *testing.T) {
	if referencePaths {
		t.Skip("zero allocations is a fast-path property")
	}
	eng := relaunchLane(topology.Pod8Tracks(24))
	if allocs := testing.AllocsPerRun(100, func() { eng.Step(); eng.Step() }); allocs != 0 {
		t.Errorf("warm relaunch allocates %v objects, want 0", allocs)
	}
}

// BenchmarkElephantRelaunch measures one elephant transfer on the 8-track
// pod: its completion, and the lane routing and starting the next one.
func BenchmarkElephantRelaunch(b *testing.B) {
	eng := relaunchLane(topology.Pod8Tracks(24))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
		eng.Step()
	}
}
