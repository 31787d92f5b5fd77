package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"heroserve/internal/sim"
	"heroserve/internal/topology"
)

// BenchmarkReallocate measures one reallocation cycle — the hot operation of
// the whole simulator: every flow start, finish, cancel, and link rescale
// pays it. Each iteration starts and cancels a probe flow against a standing
// population of long-lived flows, i.e. two reallocations per op, for both
// the fast and the reference implementation.
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
			b.Run(fmt.Sprintf("impl=%s/flows=%d", impl.name, flows), func(b *testing.B) {
				g := topology.Testbed()
				eng := sim.NewEngine()
				if impl.name == "ref" {
					eng = sim.NewReferenceEngine()
				}
				n := impl.mk(g, eng)
				rng := rand.New(rand.NewSource(42))
				paths := buildPaths(b, g, rng, 64)
				// Standing population: huge flows that never finish within
				// the benchmark.
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

// BenchmarkFlowChurn measures sustained flow turnover with completions: a
// closed loop keeping `flows` transfers in flight, each completion starting
// the next. This exercises finishFlow, the event queue under the
// cancel/reschedule storm of real traffic, and the wheel's window advance.
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
}
