package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// engines returns both implementations for property tests that must hold on
// each independently.
func engines() map[string]func() *Engine {
	return map[string]func() *Engine{
		"reference": NewReferenceEngine,
		"fast":      NewEngine,
	}
}

// Property: among events scheduled at one and the same timestamp, the
// survivors of any interleaved cancellation pattern still fire in schedule
// (FIFO) order.
func TestFIFOPreservedUnderInterleavedCancel(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 200; trial++ {
				e := mk()
				const n = 60
				var fired []int
				var events []*Event
				for i := 0; i < n; i++ {
					i := i
					events = append(events, e.schedule(2.5, func() { fired = append(fired, i) }))
					// Interleave: cancel a random earlier (or this very)
					// event between schedules.
					if rng.Intn(2) == 0 {
						e.Cancel(events[rng.Intn(len(events))])
					}
				}
				e.Run()
				want := 0
				prev := -1
				for _, ev := range events {
					if !ev.Cancelled() {
						want++
					}
				}
				if len(fired) != want {
					t.Fatalf("trial %d: %d callbacks fired, want %d", trial, len(fired), want)
				}
				for _, id := range fired {
					if events[id].Cancelled() {
						t.Fatalf("trial %d: cancelled event %d fired", trial, id)
					}
					if id <= prev {
						t.Fatalf("trial %d: FIFO order violated: %v", trial, fired)
					}
					prev = id
				}
			}
		})
	}
}

// Property: PendingWork stays exact under lazy cancellation with posted
// daemon ticks in the mix, and Run still stops once only daemons remain.
func TestPendingWorkWithDaemonsUnderLazyCancel(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 100; trial++ {
				e := mk()
				// all holds each work event's handle and nil for each daemon
				// tick, which has none and so is never cancelled.
				var all []*Event
				liveWork, live := 0, 0
				for i := 0; i < 80; i++ {
					at := Time(rng.Intn(50))
					if rng.Intn(3) == 0 {
						e.PostAfterDaemon(at, func() {}) // the clock is at 0
						all = append(all, nil)
					} else {
						all = append(all, e.schedule(at, func() {}))
						liveWork++
					}
					live++
					if rng.Intn(3) == 0 {
						if ev := all[rng.Intn(len(all))]; ev != nil {
							if !ev.Cancelled() {
								liveWork--
								live--
							}
							e.Cancel(ev)
						}
					}
					if got := e.PendingWork(); got != liveWork {
						t.Fatalf("trial %d: PendingWork = %d, want %d", trial, got, liveWork)
					}
					if got := e.Pending(); got != live {
						t.Fatalf("trial %d: Pending = %d, want %d", trial, got, live)
					}
				}
				e.Run()
				if e.PendingWork() != 0 {
					t.Fatalf("trial %d: PendingWork = %d after Run", trial, e.PendingWork())
				}
				// Every non-cancelled work event must have run; Run may leave
				// daemons queued but executes no further work.
				want := uint64(0)
				for _, ev := range all {
					if ev != nil && !ev.Cancelled() {
						want++
					}
				}
				// Daemons scheduled before the last work event also run, so
				// Processed >= want.
				if e.Processed() < want {
					t.Fatalf("trial %d: Processed = %d < %d live work events", trial, e.Processed(), want)
				}
			}
		})
	}
}

// Property: for any random schedule with random cancellations, the reference
// and fast fronts execute the same number of events (and end at the same
// clock).
func TestProcessedEquivalenceAcrossFronts(t *testing.T) {
	f := func(raw []uint16, cancelMask []bool) bool {
		ref, fast := NewReferenceEngine(), NewEngine()
		var evR, evF []*Event
		for i, r := range raw {
			at := Time(r) / 32.0
			evR = append(evR, ref.schedule(at, func() {}))
			evF = append(evF, fast.schedule(at, func() {}))
			if i < len(cancelMask) && cancelMask[i] {
				// Cancel a deterministic earlier event on both engines.
				k := int(r) % len(evR)
				ref.Cancel(evR[k])
				fast.Cancel(evF[k])
			}
		}
		ref.Run()
		fast.Run()
		return ref.Processed() == fast.Processed() &&
			ref.Now() == fast.Now() &&
			ref.Pending() == fast.Pending()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// A cancel storm must trigger compaction without losing order or counters:
// schedule many, cancel almost all, survivors fire in order.
func TestCompactionUnderCancelStorm(t *testing.T) {
	e := NewEngine()
	const n = 20000
	var events []*Event
	var fired []int
	for i := 0; i < n; i++ {
		i := i
		events = append(events, e.schedule(Time(i%97)+Time(i)/1e6, func() { fired = append(fired, i) }))
	}
	for i, ev := range events {
		if i%500 != 0 {
			e.Cancel(ev)
		}
	}
	if got, want := e.Pending(), n/500; got != want {
		t.Fatalf("Pending = %d after storm, want %d", got, want)
	}
	e.Run()
	if len(fired) != n/500 {
		t.Fatalf("%d survivors fired, want %d", len(fired), n/500)
	}
	for i := 1; i < len(fired); i++ {
		a, b := events[fired[i-1]], events[fired[i]]
		if b.At() < a.At() || (b.At() == a.At() && fired[i] < fired[i-1]) {
			t.Fatalf("survivors out of order: %d then %d", fired[i-1], fired[i])
		}
	}
	if e.Pending() != 0 || e.PendingWork() != 0 {
		t.Fatalf("Pending=%d PendingWork=%d after drain", e.Pending(), e.PendingWork())
	}
}

// RunUntil must interact correctly with tombstones sitting at the queue
// head on the fast engine.
func TestRunUntilSkipsTombstoneHead(t *testing.T) {
	e := NewEngine()
	ev1 := e.schedule(1, func() {})
	ran := false
	e.Post(2, func() { ran = true })
	later := e.schedule(10, func() {})
	e.Cancel(ev1)
	e.RunUntil(5)
	if !ran {
		t.Error("second event did not run")
	}
	if e.Now() != 5 {
		t.Errorf("Now = %g, want 5", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.Cancel(later)
	e.Run()
	if e.Processed() != 1 {
		t.Errorf("Processed = %d, want 1", e.Processed())
	}
}
