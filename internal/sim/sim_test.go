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
		e.Schedule(at, func() { got = append(got, at) })
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
		e.Schedule(1.0, func() { got = append(got, i) })
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
	e.Schedule(5, func() {
		e.After(2, func() { secondAt = e.Now() })
	})
	e.Run()
	if secondAt != 7 {
		t.Errorf("nested After fired at %g, want 7", secondAt)
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.Schedule(1, func() { ran = true })
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
		events = append(events, e.Schedule(Time(i), func() { got = append(got, i) }))
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
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, func() {})
}

// TestBadTimesPanic feeds every way of queueing an event a time in the
// past and a NaN time, on both fronts. Each must panic at the call and leave
// the queue as it was: nothing added, the clock where it stood.
func TestBadTimesPanic(t *testing.T) {
	nan := math.NaN()
	nop := func() {}
	nopEach := func(int) {}
	rows := []struct {
		name string
		call func(e *Engine, ev *Event)
	}{
		{"Schedule/past", func(e *Engine, _ *Event) { e.Schedule(5, nop) }},
		{"Schedule/NaN", func(e *Engine, _ *Event) { e.Schedule(nan, nop) }},
		{"After/NaN", func(e *Engine, _ *Event) { e.After(nan, nop) }},
		{"ScheduleDaemon/NaN", func(e *Engine, _ *Event) { e.ScheduleDaemon(nan, nop) }},
		{"Post/past", func(e *Engine, _ *Event) { e.Post(5, nop) }},
		{"Post/NaN", func(e *Engine, _ *Event) { e.Post(nan, nop) }},
		{"PostAfter/NaN", func(e *Engine, _ *Event) { e.PostAfter(nan, nop) }},
		{"Reschedule/past", func(e *Engine, ev *Event) { e.Reschedule(ev, 5) }},
		{"Reschedule/NaN", func(e *Engine, ev *Event) { e.Reschedule(ev, nan) }},
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
				ev := e.Schedule(10, nop)
				e.Run()
				e.Schedule(20, nop)
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
		e.Schedule(at, func() { got = append(got, at) })
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
	ev := e.Schedule(1, func() {})
	ran := false
	e.Schedule(2, func() { ran = true })
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
		e.Schedule(Time(i), func() {})
	}
	ev := e.Schedule(100, func() {})
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
			e.Schedule(at, func() { fired = append(fired, at) })
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

// Property: interleaving Schedule and Step never violates time ordering, even
// when new events are scheduled from inside callbacks.
func TestQuickNestedScheduling(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		var fired []Time
		var schedule func(depth int, at Time)
		schedule = func(depth int, at Time) {
			e.Schedule(at, func() {
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
			e.Schedule(at, func() {})
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
			e.AfterDaemon(0.5, loopA)
		}
	}
	loopB = func() {
		ticks++
		if e.PendingWork() > 0 {
			e.AfterDaemon(0.5, loopB)
		}
	}
	e.AfterDaemon(0.5, loopA)
	e.AfterDaemon(0.5, loopB)
	worked := false
	e.Schedule(1, func() { worked = true })
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

func TestCancelDaemonAccounting(t *testing.T) {
	e := NewEngine()
	w := e.Schedule(1, func() {})
	d := e.ScheduleDaemon(2, func() {})
	if e.PendingWork() != 1 || e.Pending() != 2 {
		t.Fatalf("PendingWork=%d Pending=%d, want 1, 2", e.PendingWork(), e.Pending())
	}
	if !d.Daemon() || w.Daemon() {
		t.Error("daemon flags wrong")
	}
	e.Cancel(w)
	if e.PendingWork() != 0 {
		t.Errorf("PendingWork = %d after cancelling the work event", e.PendingWork())
	}
	e.Cancel(d)
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after cancelling everything", e.Pending())
	}
	e.Run() // must return immediately
}
