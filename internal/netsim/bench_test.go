package netsim

import (
	"fmt"
	"math/rand"
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
}

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
