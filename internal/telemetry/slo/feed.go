package slo

import (
	"sort"

	"heroserve/internal/telemetry"
)

// Signal is one lifecycle transition, as delivered to SignalFeed
// subscribers the moment the monitor records it.
type Signal struct {
	T        float64
	Rule     string
	Kind     Kind
	Severity Severity
	State    State
	Value    float64
}

// ActiveAlert is one currently-firing (or, via Pending, breached-but-not-yet
// firing) rule, as reported by Active.
type ActiveAlert struct {
	Rule     string
	Kind     Kind
	Severity Severity
	Since    float64 // sim-time the alert fired (entered pending, for Pending)
	Value    float64 // rule measure at firing
	Dominant string  // dominant critical-path stage of the firing cause ("" when none)
}

// SignalFeed is the monitor's typed, subscribable view of the firing set.
// It is owned by the simulation goroutine: Subscribe before the run starts,
// and read Active/ActiveNames/Worst only from that goroutine (the autoscaler
// and scheduler live there too). This PR's consumers are read-only — the
// feed exists so control loops can act on alerts without another plumbing
// pass.
type SignalFeed struct {
	subs    []func(Signal)
	active  map[string]ActiveAlert
	pending map[string]ActiveAlert
}

func newSignalFeed() *SignalFeed {
	return &SignalFeed{
		active:  make(map[string]ActiveAlert),
		pending: make(map[string]ActiveAlert),
	}
}

// Subscribe registers fn for every subsequent lifecycle transition, in the
// order the monitor records them. Nil-safe.
func (f *SignalFeed) Subscribe(fn func(Signal)) {
	if f == nil || fn == nil {
		return
	}
	f.subs = append(f.subs, fn)
}

// publish records a transition: updates the firing set and notifies
// subscribers.
func (f *SignalFeed) publish(sig Signal, at ActiveAlert) {
	switch sig.State {
	case StatePending:
		f.pending[sig.Rule] = at
	case StateFiring:
		delete(f.pending, sig.Rule)
		f.active[sig.Rule] = at
	case StateResolved:
		delete(f.pending, sig.Rule)
		delete(f.active, sig.Rule)
	}
	for _, fn := range f.subs {
		fn(sig)
	}
}

// Active returns the currently-firing alerts, sorted by rule name. Nil-safe;
// the slice is the caller's to keep.
func (f *SignalFeed) Active() []ActiveAlert {
	if f == nil || len(f.active) == 0 {
		return nil
	}
	out := make([]ActiveAlert, 0, len(f.active))
	for _, a := range f.active {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rule < out[j].Rule })
	return out
}

// ActiveNames returns the firing rule names, sorted. Nil-safe.
func (f *SignalFeed) ActiveNames() []string {
	if f == nil || len(f.active) == 0 {
		return nil
	}
	return telemetry.SortedKeys(f.active)
}

// Pending returns the breached-but-not-yet-firing alerts (inside their For
// hold-down), sorted by rule name. Nil-safe; the slice is the caller's to keep.
func (f *SignalFeed) Pending() []ActiveAlert {
	if f == nil || len(f.pending) == 0 {
		return nil
	}
	out := make([]ActiveAlert, 0, len(f.pending))
	for _, a := range f.pending {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rule < out[j].Rule })
	return out
}

// Worst returns the most urgent firing severity; ok is false when nothing
// is firing. Nil-safe.
func (f *SignalFeed) Worst() (Severity, bool) {
	if f == nil || len(f.active) == 0 {
		return 0, false
	}
	worst := SevInfo
	for _, a := range f.active {
		if a.Severity > worst {
			worst = a.Severity
		}
	}
	return worst, true
}
