package sim

import "math"

// wheelBuckets is the number of buckets in the near-future window. With the
// width heuristic below (~8 expected events per bucket) one window refill
// absorbs a few hundred events before touching the far heap again.
const wheelBuckets = 64

// slot is one wheel entry: the (at, seq) key an event was queued under, and
// the event. Slots are values, ordered by their own key, so an event that is
// rescheduled while queued simply gets a second slot under its new key. The
// old slot goes stale and is dropped like a cancelled event's tombstone.
type slot struct {
	at  Time
	seq uint64
	ev  *Event
}

// before reports whether s precedes o in the engine's (at, seq) order.
func (s slot) before(o slot) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	return s.seq < o.seq
}

// stale reports whether s no longer stands for a pending event: the event
// was cancelled, or it was rescheduled and now lives in a newer slot.
func (s slot) stale() bool { return s.ev.cancel || s.ev.seq != s.seq }

// unqueue marks s's event as no longer queued, unless the event has moved
// on to a newer slot (which then owns the queued marker).
func (s slot) unqueue() {
	if s.ev.seq == s.seq {
		s.ev.index = -1
	}
}

// wheelFront is the fast event queue: a bucketed near-future window in front
// of a far-future heap, with lazy cancellation.
//
// Layout. Every structure holds slots by value, never *Event, so queueing an
// event — fresh or rescheduled — allocates nothing once the slices have
// grown. The window covers [winLo, winHi) split into wheelBuckets
// equal-width buckets; slots land in their bucket unsorted, O(1). Buckets
// drain in order: when one becomes current it is sorted once into `run`, an
// (at, seq)-ordered slice consumed from runPos. Everything at or past winHi
// sits in the `far` slot heap. When the window drains, the next window is
// rebuilt from the heap starting at its minimum, with the bucket width
// adapted to the recent inter-event gap so a bucket holds a handful of
// events regardless of the simulation's time scale.
//
// Cancellation and rescheduling leave a stale slot (a tombstone) that is
// discarded when it surfaces, instead of the reference path's O(log n) sift.
// A slot is stale when its event is cancelled or carries a newer seq than
// the slot (see slot.stale). A compaction pass drops stale slots when they
// outnumber live events, so reschedule storms (a timer re-armed on every
// reallocation) cannot grow the queue unboundedly.
//
// The pop order is exactly the reference heap's (at, seq) order: buckets
// partition the window by time range, each bucket is sorted before it
// drains, and insertions below the drain line go through an ordered insert
// into the live part of run.
type wheelFront struct {
	run    []slot // current sorted run; run[runPos:] are pending
	runPos int
	// runEnd is the exclusive upper time bound covered by run together with
	// the already-drained buckets: any slot with at < runEnd must be
	// order-inserted into run, never placed in a bucket.
	runEnd Time

	buckets   [wheelBuckets][]slot
	curBucket int // next bucket to drain; buckets below it are empty
	winLo     Time
	winHi     Time
	width     float64

	far slotHeap // min-heap of slots with at >= winHi

	live       int // queued, not cancelled
	tombstones int // stale slots not yet discarded

	cancelled   uint64 // lifetime count of remove() calls
	compactions uint64 // lifetime count of compact() passes

	// gapEWMA tracks the smoothed gap between consecutive popped timestamps;
	// it sets the bucket width at the next window rebuild.
	gapEWMA  float64
	lastAt   Time
	haveLast bool
}

func newWheelFront() *wheelFront {
	neg := math.Inf(-1)
	return &wheelFront{runEnd: neg, winLo: neg, winHi: neg, curBucket: wheelBuckets}
}

func (f *wheelFront) push(e *Event) {
	e.index = 0 // queued marker
	f.live++
	s := slot{at: e.at, seq: e.seq, ev: e}
	switch {
	case s.at < f.runEnd:
		f.insertRun(s)
	case s.at < f.winHi:
		idx := int((s.at - f.winLo) / f.width)
		if idx >= wheelBuckets {
			idx = wheelBuckets - 1
		}
		if idx < f.curBucket {
			// Float rounding landed it below the drain line; keep order by
			// inserting into the live run instead.
			f.insertRun(s)
			return
		}
		f.buckets[idx] = append(f.buckets[idx], s)
	default:
		f.far.push(s)
	}
}

// reschedule re-queues e under its new key. When e was live under its old
// key, that slot becomes a tombstone exactly as a Cancel would leave it.
func (f *wheelFront) reschedule(e *Event, queued bool) {
	if queued {
		f.remove(e)
	}
	f.push(e)
}

// insertRun places s into the pending part of run, keeping (at, seq) order.
func (f *wheelFront) insertRun(s slot) {
	lo, hi := f.runPos, len(f.run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.run[mid].before(s) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	f.run = append(f.run, slot{})
	copy(f.run[lo+1:], f.run[lo:])
	f.run[lo] = s
}

// settle makes run[runPos] the earliest live slot, draining buckets and
// refilling the window from the far heap as needed. It discards tombstones
// it passes. Returns false when no live event remains.
func (f *wheelFront) settle() bool {
	// Reclaim the consumed prefix of a long-lived run so a window that keeps
	// receiving order-inserts does not grow without bound.
	if f.runPos > 64 && f.runPos*2 >= len(f.run) {
		n := copy(f.run, f.run[f.runPos:])
		clear(f.run[n:])
		f.run = f.run[:n]
		f.runPos = 0
	}
	for {
		for f.runPos < len(f.run) {
			if !f.run[f.runPos].stale() {
				return true
			}
			f.discard(f.runPos)
		}
		// Run exhausted: recycle it and pull the next non-empty bucket.
		f.run = f.run[:0]
		f.runPos = 0
		advanced := false
		for f.curBucket < wheelBuckets {
			b := f.buckets[f.curBucket]
			f.buckets[f.curBucket] = b[:0]
			f.curBucket++
			if f.curBucket == wheelBuckets {
				f.runEnd = f.winHi // exact: avoids float drift at the seam
			} else {
				f.runEnd = f.winLo + float64(f.curBucket)*f.width
			}
			if len(b) > 0 {
				f.run = append(f.run, b...)
				clear(b)
				sortSlots(f.run)
				advanced = true
				break
			}
		}
		if advanced {
			continue
		}
		if len(f.far) == 0 {
			return false
		}
		f.rebuildWindow()
	}
}

// discard drops the stale slot at run position i.
func (f *wheelFront) discard(i int) {
	f.run[i].unqueue()
	f.run[i] = slot{}
	f.runPos = i + 1
	f.tombstones--
}

// rebuildWindow starts a fresh window at the far heap's minimum and moves
// every heap slot inside it into the buckets.
func (f *wheelFront) rebuildWindow() {
	first := f.far.pop()
	f.winLo = first.at

	w := f.gapEWMA * 8 // aim for ~8 events per bucket
	// Keep the width meaningful: above zero, above the float resolution at
	// winLo's magnitude, and finite. A too-wide window only means more
	// events share a bucket (they get sorted together); a too-narrow one
	// would bounce every event off the far heap.
	if minW := math.Abs(f.winLo) * 1e-9; w < minW {
		w = minW
	}
	if w <= 0 {
		w = 1e-12
	}
	hi := f.winLo + float64(wheelBuckets)*w
	if math.IsInf(hi, 1) || !(hi > f.winLo) {
		hi = math.MaxFloat64
	}
	f.width = w
	f.winHi = hi
	f.curBucket = 0
	f.runEnd = f.winLo

	f.place(first)
	for len(f.far) > 0 && f.far[0].at < hi {
		f.place(f.far.pop())
	}
}

// place drops a window-resident slot into its bucket.
func (f *wheelFront) place(s slot) {
	idx := int((s.at - f.winLo) / f.width)
	if idx < 0 {
		idx = 0
	} else if idx >= wheelBuckets {
		idx = wheelBuckets - 1
	}
	f.buckets[idx] = append(f.buckets[idx], s)
}

func (f *wheelFront) pop() *Event {
	if !f.settle() {
		return nil
	}
	s := f.run[f.runPos]
	f.run[f.runPos] = slot{}
	f.runPos++
	s.unqueue()
	f.live--
	if f.haveLast && s.at > f.lastAt {
		gap := s.at - f.lastAt
		f.gapEWMA = 0.75*f.gapEWMA + 0.25*gap
	}
	f.lastAt = s.at
	f.haveLast = true
	return s.ev
}

func (f *wheelFront) peek() *Event {
	if !f.settle() {
		return nil
	}
	return f.run[f.runPos].ev
}

func (f *wheelFront) remove(e *Event) {
	// Lazy: e is already cancelled or carries a newer seq, so its slot is
	// stale; leave the tombstone where it is.
	f.live--
	f.tombstones++
	f.cancelled++
	if f.tombstones > 64 && f.tombstones > f.live {
		f.compact()
	}
}

func (f *wheelFront) stats() QueueStats {
	st := QueueStats{
		Live:         f.live,
		Tombstones:   f.tombstones,
		Cancelled:    f.cancelled,
		Compactions:  f.compactions,
		WindowEvents: len(f.run) - f.runPos,
		FarEvents:    len(f.far),
	}
	for i := f.curBucket; i < wheelBuckets; i++ {
		n := len(f.buckets[i])
		if n == 0 {
			continue
		}
		st.WindowEvents += n
		st.BucketsOccupied++
		if n > st.MaxBucket {
			st.MaxBucket = n
		}
	}
	return st
}

// compact drops every stale slot in place, preserving the current window:
// the pending part of run keeps its order, buckets keep their (unsorted)
// contents, and the far heap is filtered and re-heapified. Not resetting the
// window matters — a reschedule storm (re-arm a block of events at nearby
// times) triggers compaction constantly, and a window rebuild on
// each would cost more than the eager reference removes.
func (f *wheelFront) compact() {
	f.compactions++
	f.run = f.run[:f.runPos+f.dropStale(f.run[f.runPos:])]
	for i := f.curBucket; i < wheelBuckets; i++ {
		f.buckets[i] = f.buckets[i][:f.dropStale(f.buckets[i])]
	}
	f.far = f.far[:f.dropStale(f.far)]
	f.far.init()
}

// dropStale moves the live slots of s to its front, in order, clears the
// rest, and returns the number kept.
func (f *wheelFront) dropStale(s []slot) int {
	k := 0
	for _, x := range s {
		if x.stale() {
			x.unqueue()
			f.tombstones--
		} else {
			s[k] = x
			k++
		}
	}
	clear(s[k:])
	return k
}

// slotHeap is a binary min-heap of slots by (at, seq). It is hand-rolled
// because container/heap boxes every pushed value in an interface, which
// would allocate on each far-future push.
type slotHeap []slot

func (h *slotHeap) push(s slot) {
	*h = append(*h, s)
	h.up(len(*h) - 1)
}

func (h *slotHeap) pop() slot {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = slot{}
	*h = q[:n]
	h.down(0)
	return top
}

func (h slotHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h slotHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h slotHeap) down(i int) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if r := j + 1; r < n && h[r].before(h[j]) {
			j = r
		}
		if !h[j].before(h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// sortSlots orders slots by (at, seq) with an allocation-free
// insertion/quick hybrid (sort.Slice would allocate its closure on every
// bucket drain, which is the hot path).
func sortSlots(s []slot) {
	if len(s) < 2 {
		return
	}
	if len(s) <= 24 {
		insertionSortSlots(s)
		return
	}
	// Median-of-three pivot.
	m := len(s) / 2
	lo, hi := 0, len(s)-1
	if s[m].before(s[lo]) {
		s[m], s[lo] = s[lo], s[m]
	}
	if s[hi].before(s[lo]) {
		s[hi], s[lo] = s[lo], s[hi]
	}
	if s[hi].before(s[m]) {
		s[hi], s[m] = s[m], s[hi]
	}
	pivot := s[m]
	i, j := 0, len(s)-1
	for i <= j {
		for s[i].before(pivot) {
			i++
		}
		for pivot.before(s[j]) {
			j--
		}
		if i <= j {
			s[i], s[j] = s[j], s[i]
			i++
			j--
		}
	}
	sortSlots(s[:j+1])
	sortSlots(s[i:])
}

func insertionSortSlots(s []slot) {
	for i := 1; i < len(s); i++ {
		x := s[i]
		j := i - 1
		for j >= 0 && x.before(s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = x
	}
}
