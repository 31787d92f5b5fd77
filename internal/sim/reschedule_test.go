package sim

// Reschedule moves ev to absolute time at under the next sequence number:
// ScheduleSeq under a number reserved at the call, with ev's own callback.
// The simulator re-arms its events under numbers it reserved earlier; the
// tests move events with this one-step form, and prove it is Cancel(ev)
// followed by schedule(at, fn) (TestDifferentialReschedule).
func (e *Engine) Reschedule(ev *Event, at Time) {
	e.checkAt(at) // before the reservation: a bad time reserves nothing
	e.ScheduleSeq(ev, at, e.ReserveSeq(1), ev.fn)
}

// schedule queues fn at absolute time at on a fresh event and returns the
// handle, for tests that cancel or move the event.
func (e *Engine) schedule(at Time, fn func()) *Event {
	return e.ScheduleSeq(nil, at, e.ReserveSeq(1), fn)
}
