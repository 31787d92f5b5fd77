package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"heroserve/internal/sim"
	"heroserve/internal/telemetry"
	"heroserve/internal/topology"
)

// BenchmarkReallocate measures one reallocation cycle — the hot operation of
// the whole simulator: every flow start, finish, cancel, and link rescale
// pays it. Each iteration starts and cancels a probe flow against a standing
// population of long-lived flows, i.e. two reallocations per op, for both
// the fast and the reference implementation. The population spreads over
// the first `paths` of 64 random GPU-to-GPU paths on the testbed (the 64
// hold 52 distinct edge sequences), so paths=4 piles it into a few path
// classes and paths=64 spreads it over many.
func BenchmarkReallocate(b *testing.B) {
	impls := []struct {
		name string
		mk   func(*topology.Graph, *sim.Engine) *Network
	}{
		{"fast", New},
		{"ref", NewReference},
	}
	for _, impl := range impls {
		for _, flows := range []int{10, 100, 1000} {
			for _, np := range []int{4, 64} {
				b.Run(fmt.Sprintf("impl=%s/flows=%d/paths=%d", impl.name, flows, np), func(b *testing.B) {
					g := topology.Testbed()
					eng := sim.NewEngine()
					if impl.name == "ref" {
						eng = sim.NewReferenceEngine()
					}
					n := impl.mk(g, eng)
					rng := rand.New(rand.NewSource(42))
					paths := buildPaths(b, g, rng, 64)[:np]
					// Standing population: huge flows that never finish
					// within the benchmark.
					for i := 0; i < flows; i++ {
						n.StartFlow(paths[i%len(paths)], 1<<40, nil)
					}
					probePath := paths[rng.Intn(len(paths))]
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						f := n.StartFlow(probePath, 1<<30, nil)
						n.CancelFlow(f)
					}
					b.StopTimer()
					b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "reallocs/s")
				})
			}
		}
	}
}

// BenchmarkFlowChurn measures sustained flow turnover with completions: a
// closed loop keeping `flows` transfers in flight, each completion starting
// the next. This exercises finishFlow, the event queue under the
// cancel/reschedule storm of real traffic.
func BenchmarkFlowChurn(b *testing.B) {
	for _, impl := range []string{"fast", "ref"} {
		b.Run("impl="+impl, func(b *testing.B) {
			g := topology.Testbed()
			var eng *sim.Engine
			var n *Network
			if impl == "ref" {
				eng = sim.NewReferenceEngine()
				n = NewReference(g, eng)
			} else {
				eng = sim.NewEngine()
				n = New(g, eng)
			}
			rng := rand.New(rand.NewSource(43))
			paths := buildPaths(b, g, rng, 64)
			const inFlight = 32
			started := 0
			var launch func()
			launch = func() {
				started++
				n.StartFlow(paths[started%len(paths)], int64(1<<20+started%4096), func(*Flow) {
					launch()
				})
			}
			for i := 0; i < inFlight; i++ {
				launch()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !eng.Step() {
					b.Fatal("engine drained")
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
	b.Run("kv", benchmarkKVChurn)
	b.Run("kv-batch", benchmarkKVBatch)
}

// kvPaths returns the first four distinct paths of the testbed path table
// the KV benchmarks use.
func kvPaths(b *testing.B, g *topology.Graph) []topology.Path {
	var paths []topology.Path
	for _, p := range buildPaths(b, g, rand.New(rand.NewSource(45)), 64) {
		if len(paths) < 4 && !slices.ContainsFunc(paths, func(q topology.Path) bool { return slices.Equal(p.Edges, q.Edges) }) {
			paths = append(paths, p)
		}
	}
	return paths
}

// benchmarkKVChurn is BenchmarkFlowChurn in the shape of the chat-kv-backlog
// workload, whose reallocations see about 27 active flows in 4 path classes:
// 28 transfers of distinct sizes piled onto 4 distinct paths, each
// completion starting the next transfer on the same path. Transfers start
// the way collective.Comm.Transfer starts KV hand-offs, as one-flow groups
// whose done runs inline. Every event advances the clock, so each one
// charges every flow, and the classes keep many flows of different sizes.
func benchmarkKVChurn(b *testing.B) {
	for _, impl := range []string{"fast", "ref"} {
		b.Run("impl="+impl, func(b *testing.B) {
			g := topology.Testbed()
			newNet, eng := New, sim.NewEngine()
			if impl == "ref" {
				newNet, eng = NewReference, sim.NewReferenceEngine()
			}
			n := newNet(g, eng)
			paths := kvPaths(b, g)
			started := 0
			relaunch := make([]func(), len(paths))
			launch := func(i int) {
				started++
				// 1-2 MiB, a different size every time.
				size := int64(1<<20 + (started*7919)%(1<<20))
				n.StartGroup([]topology.Path{paths[i]}, size, Inline, relaunch[i])
			}
			for i := range relaunch {
				relaunch[i] = func() { launch(i) }
			}
			for k := 0; k < 28; k++ {
				launch(k % len(paths))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !eng.Step() {
					b.Fatal("engine drained")
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// benchmarkKVBatch is a prefill batch's KV hand-off: one callback starts
// eight one-path transfers, two on each of benchmarkKVChurn's four paths,
// next to 20 long-lived flows on the same paths, the way
// collective.Comm.Transfer starts them. An op runs the callback and every
// delivery. With held, the callback holds the network, as serving's
// hand-off does, so its eight starts make one reallocation instead of
// eight: reallocs/op counts the callback's reallocations.
func benchmarkKVBatch(b *testing.B) {
	for _, impl := range []string{"fast", "ref"} {
		for _, held := range []bool{false, true} {
			b.Run(fmt.Sprintf("impl=%s/held=%v", impl, held), func(b *testing.B) {
				g := topology.Testbed()
				newNet, eng := New, sim.NewEngine()
				if impl == "ref" {
					newNet, eng = NewReference, sim.NewReferenceEngine()
				}
				n := newNet(g, eng)
				paths := kvPaths(b, g)
				for i := 0; i < 20; i++ {
					n.StartFlow(paths[i%len(paths)], 1<<50+int64(i), nil)
				}
				probe := &reallocCounter{}
				n.SetPerf(probe)
				one := make([][]topology.Path, len(paths))
				for i, p := range paths {
					one[i] = []topology.Path{p}
				}
				left := 0
				delivered := func() { left-- }
				handoff := func() {
					probe.on = true
					if held {
						n.Hold()
					}
					for k := 0; k < 8; k++ {
						left++
						n.StartGroup(one[k%len(one)], int64(1<<20+k*7919), Inline, delivered)
					}
					if held {
						n.Release()
					}
					probe.on = false
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Post(eng.Now(), handoff)
					for eng.Step() && left > 0 {
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(probe.n)/float64(b.N), "reallocs/op")
			})
		}
	}
}

// reallocCounter counts the reallocations made while on.
type reallocCounter struct {
	on bool
	n  int
}

func (c *reallocCounter) ReallocStart() int64 {
	if c.on {
		c.n++
	}
	return 0
}

func (c *reallocCounter) ReallocDone(int64, int, int, int) {}

// BenchmarkChargePodTelemetry measures one progress charge on the 896-edge
// 8-track pod with telemetry armed and a few flows in flight — the shape of
// every flow event on a pod-scale run. Busy-seconds are charged from the
// busy-link list, so the cost follows the links in use, not the pod's size.
func BenchmarkChargePodTelemetry(b *testing.B) {
	g := topology.Pod8Tracks(24)
	eng := sim.NewEngine()
	n := New(g, eng)
	n.SetTelemetry(telemetry.New())
	rng := rand.New(rand.NewSource(44))
	for _, p := range buildPaths(b, g, rng, 8) {
		n.StartFlow(p, 1<<40, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.lastCharge = -1 // a positive dt, so every call charges
		n.charge()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(n.busy)), "busy-links")
}
