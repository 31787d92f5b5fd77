// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulators in this repository (the flow-level network simulator, the
// switch data plane, and the end-to-end serving simulator) share one Engine:
// a priority queue of timestamped events with deterministic FIFO tie-breaking
// for events scheduled at the same instant. Simulated time is a float64
// number of seconds; no wall-clock time is ever consulted, so runs are fully
// reproducible.
//
// Two queue implementations back the engine. NewEngine returns the fast
// path: a hand-rolled binary heap of value slots, where cancellation is lazy
// (a tombstone, discarded when the event surfaces, instead of an O(log n)
// sift out of the middle of the heap per Cancel). NewReferenceEngine returns
// the original container/heap implementation with eager removal. Both pop
// events in exactly the same (time, FIFO) order — differential_test.go
// locksteps them over long randomized scripts, and FuzzFronts over fuzzed
// programs — so they are behaviorally interchangeable; the reference path
// exists as the equivalence oracle and benchmark baseline.
//
// ReserveSeq takes sequence numbers ahead of time, and ScheduleSeq queues an
// event under one of them later, re-arming an existing Event instead of
// allocating a new one. An event queued so sorts among the events due at its
// instant exactly where one queued at the reservation would have. netsim's
// completion timer uses the pair: each change to a network reserves the
// number its re-arm would take, and a network held across several changes
// arms the timer once, under the last change's number, where the last of
// the eager re-arms would have put it.
//
// Post and PostAfter queue a one-shot callback without returning a handle,
// and PostAfterDaemon a housekeeping tick that does not keep the run alive.
// Since nobody can cancel or move such an event, the engine recycles it on a
// free list once its callback has returned, so a steady stream of posted
// events allocates nothing. ScheduleSeq, with Cancel, is the one handle: the
// event netsim's completion timer re-arms.
//
// PostEach posts one callback per element of an input stream (a trace's
// arrivals, a fault schedule, a burst train) while keeping a single event
// queued for the whole stream. It reserves (ReserveSeq) the sequence numbers
// the equivalent Post loop would have taken and runs each element under its
// own reserved key, so the run is the Post loop's, step for step; only
// QueueStats sees one queued event where the loop would have queued n.
package sim

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
)

// Time is a simulated timestamp in seconds since the start of the run.
type Time = float64

// Forever is a timestamp later than any event the simulator will process.
// It is convenient as the initial value of "earliest deadline" computations.
const Forever Time = math.MaxFloat64

// Event is a scheduled callback. The callback runs exactly once, at the
// event's timestamp, unless the event is cancelled first.
type Event struct {
	at     Time
	seq    uint64 // tie-break: FIFO among equal timestamps
	fn     func()
	index  int // >= 0 while queued (the reference heap's index), -1 otherwise
	cancel bool
	// daemon marks a posted housekeeping tick (see PostAfterDaemon).
	daemon bool
	// pooled marks a posted event: the engine recycles it after it runs.
	pooled bool
}

// At returns the simulated time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e.cancel }

// before reports whether e precedes o in the engine's total order.
func (e *Event) before(o *Event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool { return q[i].before(q[j]) }

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// front is a pending-event container. Both implementations surface live
// events in exactly (at, seq) order; they differ in how cancellation and
// insertion are amortized.
type front interface {
	// push enqueues a freshly scheduled event.
	push(*Event)
	// pop removes and returns the earliest live event, discarding any
	// cancelled events encountered on the way. It returns nil when no live
	// event remains.
	pop() *Event
	// peek returns the earliest live event without removing it (discarding
	// cancelled events on the way), or nil when none remains.
	peek() *Event
	// remove is told that the (still queued) event was just cancelled. The
	// reference front deletes it eagerly; the fast front leaves a tombstone.
	remove(*Event)
	// reschedule re-enqueues an event that now carries a fresh (at, seq).
	// queued reports that it was live under its old key; the front then
	// retires that entry as remove would (the reference front sifts the
	// event to its new place, the fast front leaves a tombstone behind).
	reschedule(e *Event, queued bool)
	// stats snapshots the queue's internal occupancy for the perf
	// observatory. Read-only; never mutates the queue.
	stats() QueueStats
}

// QueueStats is a point-in-time snapshot of the event queue's internals, the
// raw material of the performance observatory (internal/telemetry/perf). The
// tombstone and compaction fields are zero on the reference heap by
// construction: it removes eagerly.
type QueueStats struct {
	// Live is the number of queued, not-cancelled events.
	Live int
	// Tombstones is the number of cancelled or rescheduled events' stale
	// slots still in the queue (lazy cancellation, fast front only).
	Tombstones int
	// Cancelled counts every cancellation the front has absorbed.
	Cancelled uint64
	// Compactions counts tombstone-compaction passes (fast front only).
	Compactions uint64
}

// Profiler receives the engine's self-profiling callbacks. BeginEvent runs
// after an event is popped (the clock already advanced) and immediately
// before its callback; the token it returns is handed to EndEvent right
// after the callback returns. Implementations decide internally how often to
// pay for wall-clock reads — returning token 0 marks the event as unsampled.
// The engine's simulated behavior is completely independent of the profiler:
// it schedules nothing, cancels nothing, and observes the queue read-only.
type Profiler interface {
	BeginEvent(at Time) int64
	EndEvent(token int64)
}

// heapFront is the reference queue: a binary heap with eager O(log n)
// removal on Cancel. It never holds tombstones.
type heapFront struct {
	q         eventQueue
	cancelled uint64
}

func (f *heapFront) push(e *Event) { heap.Push(&f.q, e) }

func (f *heapFront) pop() *Event {
	for len(f.q) > 0 {
		e := heap.Pop(&f.q).(*Event)
		if !e.cancel {
			return e
		}
	}
	return nil
}

func (f *heapFront) peek() *Event {
	for len(f.q) > 0 && f.q[0].cancel {
		heap.Pop(&f.q)
	}
	if len(f.q) == 0 {
		return nil
	}
	return f.q[0]
}

func (f *heapFront) remove(e *Event) {
	heap.Remove(&f.q, e.index)
	e.index = -1
	f.cancelled++
}

func (f *heapFront) reschedule(e *Event, queued bool) {
	if !queued {
		heap.Push(&f.q, e)
		return
	}
	heap.Fix(&f.q, e.index)
	f.cancelled++ // counted like the Cancel it stands in for
}

func (f *heapFront) stats() QueueStats {
	return QueueStats{Live: len(f.q), Cancelled: f.cancelled}
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine (fast queue) or NewReferenceEngine (reference heap).
type Engine struct {
	now     Time
	front   front
	nextSeq uint64
	// processed counts events that have executed (not cancelled ones).
	processed uint64
	// live counts queued events that have not been cancelled.
	live int
	// work counts queued non-daemon events: the events that represent real
	// simulated activity rather than periodic housekeeping.
	work int
	// prof, when non-nil, brackets every executed event callback. It is a
	// pure observer: the simulated schedule is identical with or without it.
	prof Profiler
	// free holds posted events that have run, for Post to reuse.
	free []*Event
}

// maxFree bounds the free list. A steady run keeps far fewer posted events
// in flight; past the bound (say, after a fan-out that posted a million
// callbacks at once has drained) run events are left to the garbage
// collector instead of pinning the burst's memory for the rest of the run.
// Input streams never get there: PostEach queues one event per stream.
const maxFree = 4096

// NewEngine returns an engine with the clock at zero and an empty queue,
// backed by the fast lazy-cancellation queue.
func NewEngine() *Engine {
	return &Engine{front: &lazyFront{}}
}

// NewReferenceEngine returns an engine backed by the original binary-heap
// queue with eager cancellation. It processes any schedule in exactly the
// same order as NewEngine; it exists as the differential-testing oracle and
// the benchmark baseline.
func NewReferenceEngine() *Engine {
	return &Engine{front: &heapFront{}}
}

// SetProfiler installs (or, with nil, removes) the engine's self-profiling
// observer. The profiler sees every executed event but cannot influence the
// simulation: determinism of the event order is untouched.
func (e *Engine) SetProfiler(p Profiler) { e.prof = p }

// QueueStats snapshots the event queue's internal occupancy. It is read-only
// and safe to call at any point, including from a Profiler callback.
func (e *Engine) QueueStats() QueueStats { return e.front.stats() }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of live (not cancelled) events still queued.
func (e *Engine) Pending() int { return e.live }

// PendingWork returns the number of queued non-daemon events. Periodic
// control loops should consult it — not Pending — when deciding whether to
// reschedule themselves: counting every queued event lets two daemon loops
// keep each other (and the whole simulation) alive forever.
func (e *Engine) PendingWork() int { return e.work }

// checkAt panics unless at is at or after now. The negated comparison
// rejects NaN too: a NaN time would run last on both fronts and leave the
// clock at NaN, where no past-time check could ever fire again.
func (e *Engine) checkAt(at Time) {
	if !(at >= e.now) {
		panic(fmt.Sprintf("sim: schedule at %g before now %g", at, e.now))
	}
}

// arm queues ev under the key (at, seq). It leaves the Pending and
// PendingWork counters to the caller.
func (e *Engine) arm(ev *Event, at Time, seq uint64) {
	ev.at, ev.seq, ev.index = at, seq, -1
	e.front.push(ev)
}

// Post enqueues fn to run at absolute time at, under the next sequence
// number, without returning a handle. Posting in the past, or at NaN,
// panics: it always indicates a simulator bug, and silently reordering time
// would corrupt every downstream measurement. Without a handle the event can
// be neither cancelled nor rescheduled, which lets the engine put it on a
// free list once fn (and the profiler's EndEvent) has returned: no queue
// slot or heap index can still point at it, and the next Post overwrites its
// key with a fresh sequence number.
func (e *Engine) Post(at Time, fn func()) { e.post(at, fn, false) }

// post queues fn at at on a recycled or fresh pooled event, as a daemon tick
// or as work. The daemon flag is set either way: a recycled event may have
// been either.
func (e *Engine) post(at Time, fn func(), daemon bool) {
	e.checkAt(at)
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{pooled: true}
	}
	ev.fn, ev.daemon = fn, daemon
	e.arm(ev, at, e.ReserveSeq(1))
	e.live++
	if !daemon {
		e.work++
	}
}

// PostAfter posts fn to run delay seconds from now. Negative delays panic.
func (e *Engine) PostAfter(delay Time, fn func()) {
	e.Post(e.now+delay, fn)
}

// PostEach posts fn(i) to run at at(i) for every i in [0, n). It is
// observably identical to
//
//	for i := range n { e.Post(at(i), func() { fn(i) }) }
//
// — same run order, clock, Processed, Pending and PendingWork at every step —
// but keeps one event queued for the whole stream instead of n. The n
// sequence numbers the loop would have taken are reserved at the call, and
// element i runs under (at(i), base+i): the key its own Post would have
// given it. Since both fronts order purely by (at, seq), an event posted
// later for the same instant still runs after every element, and one posted
// earlier before them, exactly as with the loop. The stream's event is
// re-armed with the next element's key as each element fires, before fn
// runs, and the Pending and PendingWork counters carry every element not yet
// run; only QueueStats sees the single queued event. Elements whose times
// are out of order are walked in (at(i), i) order, which is the order their
// reserved keys sort in.
//
// at must be a pure function of i: PostEach calls it once per element to
// validate the stream, and again as each element is armed. Like Post, it
// panics on a time in the past or NaN, at the call and before queuing
// anything. Sorted input allocates a constant number of objects whatever n
// is; unsorted input adds one n-element index.
func (e *Engine) PostEach(n int, at func(i int) Time, fn func(i int)) {
	if n <= 0 {
		return
	}
	sorted := true
	prev := e.now
	for i := 0; i < n; i++ {
		t := at(i)
		e.checkAt(t)
		if t < prev {
			sorted = false
		}
		prev = t
	}
	st := &stream{eng: e, at: at, fn: fn, n: n}
	if !sorted {
		st.order = make([]int, n)
		for i := range st.order {
			st.order[i] = i
		}
		slices.SortFunc(st.order, func(a, b int) int {
			if c := cmp.Compare(at(a), at(b)); c != 0 {
				return c
			}
			return a - b
		})
	}
	st.base = e.ReserveSeq(n)
	e.live += n
	e.work += n
	st.ev.fn = st.step
	st.armNext()
}

// stream is a PostEach in progress: one event, re-armed per element.
type stream struct {
	ev    Event
	eng   *Engine
	at    func(int) Time
	fn    func(int)
	order []int // walk order when the times are unsorted; nil means 0..n-1
	n     int
	next  int    // walk position of the element the event is armed for
	base  uint64 // the reserved sequence number of element 0
}

// element returns the index of the element at walk position k.
func (st *stream) element(k int) int {
	if st.order == nil {
		return k
	}
	return st.order[k]
}

// armNext queues the event for the element at walk position next.
func (st *stream) armNext() {
	i := st.element(st.next)
	st.eng.arm(&st.ev, st.at(i), st.base+uint64(i))
}

// step runs the element the event fired for, after re-arming the event for
// the next one. Step has already counted the element off Pending and
// PendingWork, and the re-armed event is counted there since the call.
func (st *stream) step() {
	i, fn := st.element(st.next), st.fn
	st.next++
	if st.next < st.n {
		st.armNext()
	} else {
		st.at, st.fn, st.order = nil, nil, nil // let the captures go
	}
	fn(i)
}

// PostAfterDaemon posts a housekeeping callback — a periodic scheduler
// refresh, an autoscaler control step — delay seconds from now. It must not
// keep the simulation alive on its own: it counts in Pending but not in
// PendingWork, and Run stops once only daemon events remain, discarding them
// unrun. Like Post, it recycles the event. Negative delays panic.
func (e *Engine) PostAfterDaemon(delay Time, fn func()) { e.post(e.now+delay, fn, true) }

// Cancel marks ev so that it will not run. Cancelling an already-executed or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.cancel {
		return
	}
	ev.cancel = true
	if ev.index >= 0 {
		e.live--
		e.work--
		e.front.remove(ev)
	}
}

// ReserveSeq takes the next n sequence numbers, for events that ScheduleSeq
// queues under them later, and returns the first. An event queued under a
// reserved number sorts among the events due at its instant exactly where
// one queued at the reservation would have: after every event queued
// before it, before every event queued after it. A number left unused only
// shifts every later one by the same amount, which moves no event in the
// order.
func (e *Engine) ReserveSeq(n int) uint64 {
	seq := e.nextSeq
	e.nextSeq += uint64(n)
	return seq
}

// ScheduleSeq queues fn at absolute time at under seq, a number taken
// earlier with ReserveSeq, re-arming ev, and returns ev. A nil ev is
// allocated. Re-arming ev — queued, cancelled or already run — is observably
// identical to Cancel(ev) followed by queueing a fresh event under seq: the
// Pending/PendingWork counters move the same way. The difference is that ev
// itself is reused, so re-arming allocates nothing. It panics on a time in
// the past or NaN, and on a number not yet reserved.
func (e *Engine) ScheduleSeq(ev *Event, at Time, seq uint64, fn func()) *Event {
	e.checkAt(at)
	if seq >= e.nextSeq {
		panic(fmt.Sprintf("sim: sequence number %d is not reserved", seq))
	}
	if ev == nil {
		ev = &Event{index: -1}
	}
	queued := ev.index >= 0 && !ev.cancel
	if !queued {
		e.live++
		e.work++
	}
	ev.at, ev.seq, ev.cancel, ev.fn = at, seq, false, fn
	e.front.reschedule(ev, queued)
	return ev
}

// Step executes the next pending event. It returns false when the queue is
// empty.
func (e *Engine) Step() bool {
	ev := e.front.pop()
	if ev == nil {
		return false
	}
	e.live--
	if !ev.daemon {
		e.work--
	}
	e.now = ev.at
	e.processed++
	if e.prof == nil {
		ev.fn()
	} else {
		tok := e.prof.BeginEvent(ev.at)
		ev.fn()
		e.prof.EndEvent(tok)
	}
	if ev.pooled && len(e.free) < maxFree {
		ev.fn = nil // let the callback's captures go
		e.free = append(e.free, ev)
	}
	return true
}

// Run executes events until no real work remains. Daemon events still queued
// once the work drains are discarded unrun: a periodic control tick with
// nothing left to control must not advance the clock forever.
func (e *Engine) Run() {
	for e.work > 0 && e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline (if it is ahead of the last event). Events scheduled
// after deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	for {
		next := e.front.peek()
		if next == nil || next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
