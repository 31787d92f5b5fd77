package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunInOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{3, 1, 2, 0.5} {
		at := at
		e.Post(at, func() { got = append(got, at) })
	}
	e.Run()
	want := []Time{0.5, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %g, want %g", i, got[i], want[i])
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %g, want 3", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Post(1.0, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var secondAt Time
	e.Post(5, func() {
		e.PostAfter(2, func() { secondAt = e.Now() })
	})
	e.Run()
	if secondAt != 7 {
		t.Errorf("nested PostAfter fired at %g, want 7", secondAt)
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.schedule(1, func() { ran = true })
	e.Cancel(ev)
	e.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	if !ev.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
	// Double cancel and nil cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []int
	var events []*Event
	for i := 0; i < 5; i++ {
		i := i
		events = append(events, e.schedule(Time(i), func() { got = append(got, i) }))
	}
	e.Cancel(events[2])
	e.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Post(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.Post(5, func() {})
}

// TestBadTimesPanic feeds every way of queueing an event a time in the
// past and a NaN time, and ScheduleSeq a number not yet reserved, on both
// fronts. Each must panic at the call and leave the queue as it was:
// nothing added, the clock where it stood.
func TestBadTimesPanic(t *testing.T) {
	nan := math.NaN()
	nop := func() {}
	nopEach := func(int) {}
	rows := []struct {
		name string
		call func(e *Engine, ev *Event)
	}{
		{"Post/past", func(e *Engine, _ *Event) { e.Post(5, nop) }},
		{"Post/NaN", func(e *Engine, _ *Event) { e.Post(nan, nop) }},
		{"PostAfter/NaN", func(e *Engine, _ *Event) { e.PostAfter(nan, nop) }},
		{"PostAfterDaemon/NaN", func(e *Engine, _ *Event) { e.PostAfterDaemon(nan, nop) }},
		{"Reschedule/past", func(e *Engine, ev *Event) { e.Reschedule(ev, 5) }},
		{"Reschedule/NaN", func(e *Engine, ev *Event) { e.Reschedule(ev, nan) }},
		{"ScheduleSeq/past", func(e *Engine, ev *Event) { e.ScheduleSeq(ev, 5, 0, nop) }},
		{"ScheduleSeq/NaN", func(e *Engine, ev *Event) { e.ScheduleSeq(nil, nan, 0, nop) }},
		{"ScheduleSeq/unreserved", func(e *Engine, ev *Event) { e.ScheduleSeq(ev, 30, e.nextSeq, nop) }},
		{"PostEach/past", func(e *Engine, _ *Event) {
			ats := []Time{12, 11, 5, 13}
			e.PostEach(len(ats), func(i int) Time { return ats[i] }, nopEach)
		}},
		{"PostEach/NaN", func(e *Engine, _ *Event) {
			ats := []Time{12, 13, nan, 14}
			e.PostEach(len(ats), func(i int) Time { return ats[i] }, nopEach)
		}},
		{"PostEach/NaN-first", func(e *Engine, _ *Event) {
			e.PostEach(3, func(int) Time { return nan }, nopEach)
		}},
	}
	for _, impl := range benchEngines {
		for _, row := range rows {
			t.Run(impl.name+"/"+row.name, func(t *testing.T) {
				e := impl.mk()
				ev := e.schedule(10, nop)
				e.Run()
				e.Post(20, nop)
				pending, work, seq, stats := e.Pending(), e.PendingWork(), e.nextSeq, e.QueueStats()
				func() {
					defer func() {
						if recover() == nil {
							t.Error("no panic")
						}
					}()
					row.call(e, ev)
				}()
				if e.Pending() != pending || e.PendingWork() != work || e.nextSeq != seq || e.QueueStats() != stats {
					t.Errorf("the panicking call changed the queue: pending %d→%d, work %d→%d, seq %d→%d",
						pending, e.Pending(), work, e.PendingWork(), seq, e.nextSeq)
				}
				e.Run()
				if e.Now() != 20 || e.Processed() != 2 {
					t.Errorf("after the panic the run ended at %g with %d events, want 20 and 2", e.Now(), e.Processed())
				}
			})
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.Post(at, func() { got = append(got, at) })
	}
	e.RunUntil(3)
	if len(got) != 3 {
		t.Fatalf("RunUntil(3) executed %d events, want 3", len(got))
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %g after RunUntil(3)", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	// RunUntil past the last event advances the clock to the deadline.
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Errorf("Now() = %g after RunUntil(100)", e.Now())
	}
	if len(got) != 5 {
		t.Errorf("executed %d events total, want 5", len(got))
	}
}

func TestRunUntilSkipsCancelledHead(t *testing.T) {
	e := NewEngine()
	ev := e.schedule(1, func() {})
	ran := false
	e.Post(2, func() { ran = true })
	// Cancel after scheduling; cancellation removes from the heap, but this
	// guards the lazy-discard path too.
	e.Cancel(ev)
	e.RunUntil(5)
	if !ran {
		t.Error("second event did not run")
	}
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Post(Time(i), func() {})
	}
	ev := e.schedule(100, func() {})
	e.Cancel(ev)
	e.Run()
	if e.Processed() != 7 {
		t.Errorf("Processed() = %d, want 7 (cancelled events must not count)", e.Processed())
	}
}

// Property: for any set of timestamps, the engine executes callbacks in
// nondecreasing time order and ends with the clock at the max timestamp.
func TestQuickEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			at := Time(r) / 16.0
			e.Post(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		return e.Now() == fired[len(fired)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: interleaving Post and Step never violates time ordering, even
// when new events are scheduled from inside callbacks.
func TestQuickNestedScheduling(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		var fired []Time
		var schedule func(depth int, at Time)
		schedule = func(depth int, at Time) {
			e.Post(at, func() {
				fired = append(fired, e.Now())
				if depth > 0 {
					schedule(depth-1, e.Now()+Time(rng.Intn(10)))
				}
			})
		}
		for i := 0; i < 10; i++ {
			schedule(3, Time(rng.Intn(100)))
		}
		e.Run()
		if !sort.Float64sAreSorted(fired) {
			t.Fatalf("trial %d: events fired out of order", trial)
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	times := make([]Time, 1024)
	for i := range times {
		times[i] = rng.Float64() * 1000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for _, at := range times {
			e.Post(at, func() {})
		}
		e.Run()
	}
}

func TestDaemonEventsDoNotKeepEngineAlive(t *testing.T) {
	// Two periodic daemon loops that each reschedule while the other's tick
	// is queued: with plain events this ping-pongs forever. Run must stop
	// once the only real work (one event at t=1) has drained.
	e := NewEngine()
	ticks := 0
	var loopA, loopB func()
	loopA = func() {
		ticks++
		if e.PendingWork() > 0 {
			e.PostAfterDaemon(0.5, loopA)
		}
	}
	loopB = func() {
		ticks++
		if e.PendingWork() > 0 {
			e.PostAfterDaemon(0.5, loopB)
		}
	}
	e.PostAfterDaemon(0.5, loopA)
	e.PostAfterDaemon(0.5, loopB)
	worked := false
	e.Post(1, func() { worked = true })
	e.Run()
	if !worked {
		t.Error("the real event never ran")
	}
	if e.Now() != 1 {
		t.Errorf("clock stopped at %g, want 1 (the last real event)", e.Now())
	}
	if ticks == 0 {
		t.Error("daemon loops never ticked while work was pending")
	}
	if e.PendingWork() != 0 {
		t.Errorf("PendingWork = %d after Run", e.PendingWork())
	}
}

// TestCancelDaemonAccounting: cancelling the one work event leaves a posted
// daemon tick pending but no work, and Run then returns without running it.
func TestCancelDaemonAccounting(t *testing.T) {
	for _, impl := range benchEngines {
		e := impl.mk()
		w := e.schedule(1, func() {})
		ticked := false
		e.PostAfterDaemon(2, func() { ticked = true })
		if e.PendingWork() != 1 || e.Pending() != 2 {
			t.Fatalf("%s: PendingWork=%d Pending=%d, want 1, 2", impl.name, e.PendingWork(), e.Pending())
		}
		e.Cancel(w)
		if e.PendingWork() != 0 || e.Pending() != 1 {
			t.Errorf("%s: PendingWork=%d Pending=%d after cancelling the work event, want 0, 1",
				impl.name, e.PendingWork(), e.Pending())
		}
		e.Run() // must return immediately
		if ticked || e.Now() != 0 {
			t.Errorf("%s: Run ran the daemon tick (ticked=%v, clock at %g)", impl.name, ticked, e.Now())
		}
	}
}

// TestPostRecyclesDaemonEvents recycles one pooled event from a daemon tick
// into a work event and back, on both fronts: Pending and PendingWork stay
// exact across each reuse, so a recycled tick neither keeps nor loses its
// daemon flag.
func TestPostRecyclesDaemonEvents(t *testing.T) {
	for _, impl := range benchEngines {
		e := impl.mk()
		check := func(when string, pending, work int) {
			t.Helper()
			if e.Pending() != pending || e.PendingWork() != work {
				t.Errorf("%s: %s: Pending=%d PendingWork=%d, want %d, %d",
					impl.name, when, e.Pending(), e.PendingWork(), pending, work)
			}
		}
		e.PostAfterDaemon(1, func() {})
		check("daemon tick posted", 1, 0)
		e.Step()
		check("daemon tick ran", 0, 0)
		if len(e.free) != 1 {
			t.Fatalf("%s: %d events on the free list, want the tick", impl.name, len(e.free))
		}
		e.Post(2, func() {})
		check("work posted on the recycled tick", 1, 1)
		e.Step()
		check("work ran", 0, 0)
		e.PostAfterDaemon(1, func() {})
		check("daemon tick posted on the recycled work event", 1, 0)
		e.Post(4, func() {})
		check("work posted next to the tick", 2, 1)
		e.Run()
		if e.Now() != 4 || e.Processed() != 4 {
			t.Errorf("%s: run ended at %g after %d events, want 4 and 4", impl.name, e.Now(), e.Processed())
		}
		check("drained", 0, 0)
	}
}
