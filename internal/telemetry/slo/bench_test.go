package slo

import "testing"

// benchTick is one evaluation interval of a recorded run: what the serving
// layer added, between two ticks, to every series the default rules read.
type benchTick struct {
	met, missed, admitted, completed float64
	ttft, tpot                       float64 // one observation each
	stages                           [3]float64
	kv                               float64
}

// recordTicks returns a 600-tick stream of steady traffic that overloads
// from tick 200 to 260: SLA misses, slow tokens, a growing queue, KV near
// saturation, fault stalls and a shift to decode queueing. So every default
// rule takes both its quiet and its breached path, and alerts fire and
// resolve.
func recordTicks() []benchTick {
	ticks := make([]benchTick, 600)
	for i := range ticks {
		ticks[i] = benchTick{met: 10, admitted: 10, completed: 10, ttft: 0.4, tpot: 0.05,
			stages: [3]float64{1, 3, 0}, kv: 0.5}
		if i >= 200 && i < 260 {
			ticks[i] = benchTick{met: 4, missed: 6, admitted: 14, completed: 10, ttft: 4, tpot: 0.3,
				stages: [3]float64{6, 3, 1}, kv: 0.95}
		}
	}
	return ticks
}

// BenchmarkMonitorStep times one evaluation of the default rule set over a
// recorded frame stream: each op replays the next recorded tick into the
// registry and steps the monitor one sim-second on. The stream repeats, so
// the monitor's frame window stays full and its alerts cycle once per 600
// ops.
func BenchmarkMonitorStep(b *testing.B) {
	th := newTestHub()
	reg := th.hub.Metrics
	ttft := reg.Histogram("ttft_seconds", "t", []float64{0.5, 1, 2.5, 5}, nil)
	tpot := reg.Histogram("tpot_seconds", "t", []float64{0.05, 0.1, 0.15, 0.3}, nil)
	m := NewMonitor(th.hub, Config{Rules: DefaultRules(2.5, 0.15)})
	m.Prime(0)
	ticks := recordTicks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk := &ticks[i%len(ticks)]
		th.met.Add(tk.met)
		th.missed.Add(tk.missed)
		th.admitted.Add(tk.admitted)
		th.completed.Add(tk.completed)
		ttft.Observe(tk.ttft)
		tpot.Observe(tk.tpot)
		th.stageDecode.Add(tk.stages[0])
		th.stagePrefill.Add(tk.stages[1])
		th.stageFault.Add(tk.stages[2])
		th.kv.Set(tk.kv)
		th.step(m)
	}
}
