package sim

// slot is one queue entry: the (at, seq) key an event was queued under, and
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

// lazyFront is the fast event queue: one slot heap with lazy cancellation.
//
// The heap holds slots by value, never *Event, so queueing an event — fresh
// or rescheduled — allocates nothing once the slice has grown.
//
// Cancellation and rescheduling leave a stale slot (a tombstone) that is
// discarded when it surfaces, instead of the reference path's O(log n) sift
// out of the middle of the heap. A slot is stale when its event is
// cancelled or carries a newer seq than the slot (see slot.stale). A
// compaction pass drops stale slots when they outnumber live events, so
// reschedule storms (a timer re-armed on every reallocation) cannot grow the
// queue unboundedly.
//
// The pop order is exactly the reference heap's (at, seq) order: both are
// min-heaps over the same unique keys.
type lazyFront struct {
	slots slotHeap

	live       int // queued, not cancelled
	tombstones int // stale slots not yet discarded

	cancelled   uint64 // lifetime count of remove() calls
	compactions uint64 // lifetime count of compact() passes
}

func (f *lazyFront) push(e *Event) {
	e.index = 0 // queued marker
	f.live++
	f.slots.push(slot{at: e.at, seq: e.seq, ev: e})
}

// reschedule re-queues e under its new key. When e was live under its old
// key, that slot becomes a tombstone exactly as a Cancel would leave it.
func (f *lazyFront) reschedule(e *Event, queued bool) {
	if queued {
		f.remove(e)
	}
	f.push(e)
}

// settle discards the tombstones at the top of the heap, so that the top is
// the earliest live slot. Returns false when no live event remains.
func (f *lazyFront) settle() bool {
	for len(f.slots) > 0 {
		if !f.slots[0].stale() {
			return true
		}
		f.slots.pop().unqueue()
		f.tombstones--
	}
	return false
}

func (f *lazyFront) pop() *Event {
	if !f.settle() {
		return nil
	}
	s := f.slots.pop()
	s.unqueue()
	f.live--
	return s.ev
}

func (f *lazyFront) peek() *Event {
	if !f.settle() {
		return nil
	}
	return f.slots[0].ev
}

func (f *lazyFront) remove(e *Event) {
	// Lazy: e is already cancelled or carries a newer seq, so its slot is
	// stale; leave the tombstone where it is.
	f.live--
	f.tombstones++
	f.cancelled++
	if f.tombstones > 64 && f.tombstones > f.live {
		f.compact()
	}
}

func (f *lazyFront) stats() QueueStats {
	return QueueStats{
		Live:        f.live,
		Tombstones:  f.tombstones,
		Cancelled:   f.cancelled,
		Compactions: f.compactions,
	}
}

// compact drops every stale slot and re-heapifies the rest.
func (f *lazyFront) compact() {
	f.compactions++
	k := 0
	for _, s := range f.slots {
		if s.stale() {
			s.unqueue()
			f.tombstones--
		} else {
			f.slots[k] = s
			k++
		}
	}
	clear(f.slots[k:])
	f.slots = f.slots[:k]
	f.slots.init()
}

// slotHeap is a binary min-heap of slots by (at, seq). It is hand-rolled
// because container/heap boxes every pushed value in an interface, which
// would allocate on each push.
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
