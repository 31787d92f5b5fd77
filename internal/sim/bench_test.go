package sim

import (
	"testing"
)

// benchEngines pairs each front implementation with its constructor. The
// fast front's label predates its slot heap (it was a timer wheel); it stays
// so that test and benchmark names stay comparable across versions.
var benchEngines = []struct {
	name string
	mk   func() *Engine
}{
	{"wheel", NewEngine},
	{"heap", NewReferenceEngine},
}

// lcg is a tiny deterministic generator; math/rand's overhead would drown
// the queue operations being measured.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

// BenchmarkEngineScheduleStep is the steady-state event loop: one Schedule
// and one Step per iteration against a standing window of pending events.
func BenchmarkEngineScheduleStep(b *testing.B) {
	for _, impl := range benchEngines {
		b.Run("impl="+impl.name, func(b *testing.B) {
			e := impl.mk()
			r := lcg(1)
			nop := func() {}
			const window = 1024
			for i := 0; i < window; i++ {
				e.Schedule(Time(r.next()%(1<<20))/1e3, nop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Schedule(e.Now()+Time(r.next()%(1<<20))/1e3, nop)
				if !e.Step() {
					b.Fatal("engine drained")
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkEngineCancelReschedule is a reschedule storm: cancel a block of
// pending events and schedule replacements, then process one. The
// reference heap pays O(log n) sifts per cancel; the fast front tombstones
// in O(1) and amortizes cleanup into compaction.
func BenchmarkEngineCancelReschedule(b *testing.B) {
	const block = 64
	for _, impl := range benchEngines {
		b.Run("impl="+impl.name, func(b *testing.B) {
			e := impl.mk()
			r := lcg(2)
			nop := func() {}
			events := make([]*Event, block)
			for i := range events {
				events[i] = e.Schedule(Time(r.next()%(1<<20))/1e3, nop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range events {
					e.Cancel(events[j])
					events[j] = e.Schedule(e.Now()+Time(r.next()%(1<<20))/1e3, nop)
				}
				if !e.Step() {
					b.Fatal("engine drained")
				}
			}
			b.StopTimer()
			// Each iteration cancels and reschedules the whole block and pops
			// one event.
			b.ReportMetric(float64(b.N)*(2*block+1)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// rescheduleRound re-arms every event of a standing block at a random future
// time — pending ones and whichever ran last — then processes one event.
func rescheduleRound(e *Engine, events []*Event, r *lcg) bool {
	for _, ev := range events {
		e.Reschedule(ev, e.Now()+Time(r.next()%(1<<20))/1e3)
	}
	return e.Step()
}

// BenchmarkEngineReschedule is the same pattern as
// BenchmarkEngineCancelReschedule done with Reschedule: each event is moved
// instead of being replaced by a new one.
func BenchmarkEngineReschedule(b *testing.B) {
	const block = 64
	for _, impl := range benchEngines {
		b.Run("impl="+impl.name, func(b *testing.B) {
			e := impl.mk()
			r := lcg(2)
			nop := func() {}
			events := make([]*Event, block)
			for i := range events {
				events[i] = e.Schedule(Time(r.next()%(1<<20))/1e3, nop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !rescheduleRound(e, events, &r) {
					b.Fatal("engine drained")
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*(block+1)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// TestRescheduleSteadyStateAllocs pins what Reschedule is for: once the
// queue has grown to its working size, re-arming events allocates nothing
// on either front.
func TestRescheduleSteadyStateAllocs(t *testing.T) {
	for _, impl := range benchEngines {
		t.Run(impl.name, func(t *testing.T) {
			e := impl.mk()
			r := lcg(3)
			nop := func() {}
			events := make([]*Event, 64)
			for i := range events {
				events[i] = e.Schedule(Time(r.next()%(1<<20))/1e3, nop)
			}
			round := func() {
				if !rescheduleRound(e, events, &r) {
					t.Fatal("engine drained")
				}
			}
			for i := 0; i < 1000; i++ {
				round()
			}
			if got := testing.AllocsPerRun(1000, round); got != 0 {
				t.Errorf("%.2f allocs per reschedule round, want 0", got)
			}
		})
	}
}

// TestPostSteadyStateAllocs pins what Post is for: once the queue and the
// free list have grown to their working size, a post→run cycle allocates
// nothing on either front.
func TestPostSteadyStateAllocs(t *testing.T) {
	for _, impl := range benchEngines {
		t.Run(impl.name, func(t *testing.T) {
			e := impl.mk()
			r := lcg(4)
			nop := func() {}
			for i := 0; i < 64; i++ {
				e.Post(Time(r.next()%(1<<20))/1e3, nop)
			}
			cycle := func() {
				e.PostAfter(Time(r.next()%(1<<20))/1e3, nop)
				if !e.Step() {
					t.Fatal("engine drained")
				}
			}
			for i := 0; i < 1000; i++ {
				cycle()
			}
			if got := testing.AllocsPerRun(1000, cycle); got != 0 {
				t.Errorf("%.2f allocs per post→run cycle, want 0", got)
			}
		})
	}
}

// TestPostEachAllocs pins what PostEach is for: posting a sorted stream and
// running it allocates the same constant number of objects whatever the
// stream's length, on either front.
func TestPostEachAllocs(t *testing.T) {
	for _, impl := range benchEngines {
		t.Run(impl.name, func(t *testing.T) {
			e := impl.mk()
			at := func(i int) Time { return e.Now() + Time(i/4)/8 }
			ran := 0
			fn := func(int) { ran++ }
			allocs := func(n int) float64 {
				return testing.AllocsPerRun(50, func() {
					e.PostEach(n, at, fn)
					e.Run()
				})
			}
			// Warm the engine up first: the measured runs reuse the heap
			// slice grown here.
			allocs(4096)
			ran = 0
			small, large := allocs(16), allocs(4096)
			if small != large || small > 2 {
				t.Errorf("a sorted stream of 16 allocates %.1f objects and one of 4096 %.1f: want the same, at most 2", small, large)
			}
			if want := 51 * (16 + 4096); ran != want {
				t.Errorf("ran %d elements, want %d", ran, want)
			}
		})
	}
}
