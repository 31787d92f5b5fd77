package telemetry

import (
	"encoding/json"
	"math"
	"strconv"
)

// ControlTID is the trace thread reserved for control-plane events: scheduler
// policy picks, fault instants, autoscale actions. Request spans live on
// thread request-ID+1 so every request gets its own lane in Perfetto.
const ControlTID = 0

// Event is a single Chrome trace-event. Timestamps and durations are in
// microseconds of sim-time (the format's native unit). A recorded event and
// its Args are valid only during the call that records it: emitters reuse
// their argument buffers (see Args and Tap).
type Event struct {
	Name  string   `json:"name"`
	Cat   string   `json:"cat,omitempty"`
	Ph    string   `json:"ph"`
	Ts    float64  `json:"ts"`
	Dur   *float64 `json:"dur,omitempty"`
	Pid   int      `json:"pid"`
	Tid   int      `json:"tid"`
	ID    string   `json:"id,omitempty"`
	Scope string   `json:"s,omitempty"`
	Args  Args     `json:"args,omitempty"`
}

// Tracer records trace events in emit order. Because the event loop is
// deterministic, emit order is deterministic, and the document is written
// verbatim — no sorting, no wall-clock.
//
// The tracer keeps no events: StreamTo names the writer the events are
// encoded to, a few dozen at a time on the stream's own goroutine, so a
// paper-scale sweep holds a fixed number of events in RAM. Without a writer
// the tracer only counts events and calls the tap.
type Tracer struct {
	clock  func() float64
	pid    int          // current process id; 0 until the first BeginProcess
	count  int          // events recorded
	stream *traceStream // nil until StreamTo
	tap    func(Event)  // optional live observer, invoked on every emit
	dur    float64      // the last Complete's duration, which its event points at
}

// NewTracer returns a tracer reading sim-time (seconds) from clock. It
// encodes nothing until StreamTo gives it a writer.
func NewTracer(clock func() float64) *Tracer {
	return &Tracer{clock: clock}
}

func usec(seconds float64) float64 { return seconds * 1e6 }

// Tap installs fn as the tracer's live observer: every subsequent event is
// passed to fn the moment it is recorded, on the goroutine that records it,
// whether or not the tracer streams. The event and its Args are valid only
// during the call: the emitter may reuse the argument buffer for its next
// event, so fn copies whatever it keeps. One tap at a time; installing a new
// one replaces the old (the critical-path collector re-taps per serving
// run). Already-recorded events are not replayed. Pass nil to remove.
func (t *Tracer) Tap(fn func(Event)) {
	if t == nil {
		return
	}
	t.tap = fn
}

// PID returns the id of the current trace process (0 before the first
// BeginProcess).
func (t *Tracer) PID() int {
	if t == nil {
		return 0
	}
	return t.pid
}

// emit records one event: it counts it, shows it to the tap, and encodes it
// to the stream, if any.
func (t *Tracer) emit(ev Event) {
	t.count++
	if t.tap != nil {
		t.tap(ev)
	}
	if t.stream != nil {
		t.stream.record(&ev)
	}
}

// BeginProcess starts a new trace process (one per serving run) and emits its
// process_name metadata. Subsequent events carry the new pid.
func (t *Tracer) BeginProcess(name string) int {
	if t == nil {
		return 0
	}
	t.pid++
	t.emit(Event{
		Name: "process_name", Ph: "M", Pid: t.pid, Tid: ControlTID,
		Args: Args{Str("name", name)},
	})
	return t.pid
}

// ThreadName labels a thread of the current process.
func (t *Tracer) ThreadName(tid int, name string) {
	if t == nil {
		return
	}
	t.emit(Event{
		Name: "thread_name", Ph: "M", Pid: t.pid, Tid: tid,
		Args: Args{Str("name", name)},
	})
}

// Complete records a complete ("X") span from start to end sim-seconds. Emit
// parents before children: Perfetto nests same-thread X events by containment
// and breaks ties by array order.
func (t *Tracer) Complete(tid int, cat, name string, start, end float64, args Args) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	// The event lives only during emit, so its Dur can point at the
	// tracer's own field: a local would escape to the heap through the tap.
	t.dur = usec(end - start)
	t.emit(Event{
		Name: name, Cat: cat, Ph: "X", Ts: usec(start), Dur: &t.dur,
		Pid: t.pid, Tid: tid, Args: args,
	})
}

// Instant records a thread-scoped instant ("i") event at the current sim-time.
func (t *Tracer) Instant(tid int, cat, name string, args Args) {
	if t == nil {
		return
	}
	t.InstantAt(t.clock(), tid, cat, name, args)
}

// InstantAt records an instant event at an explicit sim-time.
func (t *Tracer) InstantAt(at float64, tid int, cat, name string, args Args) {
	if t == nil {
		return
	}
	t.emit(Event{
		Name: name, Cat: cat, Ph: "i", Ts: usec(at), Pid: t.pid, Tid: tid,
		Scope: "t", Args: args,
	})
}

// AsyncBegin opens an async ("b") span — used for collectives, whose lifetime
// spans many event-loop callbacks — and returns the span's formatted id,
// which the matching AsyncEnd takes. Begin/end pairs match on (cat, id,
// name).
func (t *Tracer) AsyncBegin(cat, name string, id int64, args Args) string {
	if t == nil {
		return ""
	}
	sid := asyncID(id)
	t.emit(Event{
		Name: name, Cat: cat, Ph: "b", Ts: usec(t.clock()), Pid: t.pid,
		Tid: ControlTID, ID: sid, Args: args,
	})
	return sid
}

// AsyncEnd closes an async span opened with AsyncBegin; id is the string
// AsyncBegin returned, so the id is formatted once per span.
func (t *Tracer) AsyncEnd(cat, name, id string) {
	if t == nil {
		return
	}
	t.emit(Event{
		Name: name, Cat: cat, Ph: "e", Ts: usec(t.clock()), Pid: t.pid,
		Tid: ControlTID, ID: id,
	})
}

// asyncID formats an async span id exactly as fmt.Sprintf("0x%x", id) does
// (a negative id reads "0x-2a").
func asyncID(id int64) string {
	var b [20]byte
	return string(strconv.AppendInt(append(b[:0], "0x"...), id, 16))
}

// Len returns the number of recorded events (0 on the nil tracer), streamed
// or not.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.count
}

// Document framing: the events go between them, comma-separated.
const (
	docPrefix = `{"displayTimeUnit":"ms","traceEvents":[`
	docSuffix = "]}\n"
)

// appendEvent appends ev's JSON encoding to buf, byte for byte what
// json.Marshal(ev) produces when ev's Args keys ascend, without reflection
// on the hot path: the args are written in their own order, with no map and
// no sort. Only a string needing escapes, and a decoded raw value, go
// through encoding/json. An event json.Marshal rejects (a NaN or infinite
// Num) returns json.Marshal's error and buf unchanged.
func appendEvent(buf []byte, ev Event) ([]byte, error) {
	start := len(buf)
	ok := true
	b := append(buf, `{"name":`...)
	b = appendJSONString(b, ev.Name)
	if ev.Cat != "" {
		b = append(b, `,"cat":`...)
		b = appendJSONString(b, ev.Cat)
	}
	b = append(b, `,"ph":`...)
	b = appendJSONString(b, ev.Ph)
	b = append(b, `,"ts":`...)
	b, ok = appendJSONFloat(b, ev.Ts)
	if ev.Dur != nil && ok {
		b = append(b, `,"dur":`...)
		b, ok = appendJSONFloat(b, *ev.Dur)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(ev.Pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(ev.Tid), 10)
	if ev.ID != "" {
		b = append(b, `,"id":`...)
		b = appendJSONString(b, ev.ID)
	}
	if ev.Scope != "" {
		b = append(b, `,"s":`...)
		b = appendJSONString(b, ev.Scope)
	}
	if len(ev.Args) > 0 && ok {
		b = append(b, `,"args":`...)
		b, ok = appendArgs(b, ev.Args)
	}
	if !ok {
		_, err := json.Marshal(ev)
		return buf[:start], err
	}
	return append(b, '}'), nil
}

// appendJSONString appends s as a JSON string, byte for byte what
// encoding/json writes. Printable ASCII other than the characters
// encoding/json escapes (quote, backslash, and the HTML-sensitive <, > and
// &) is copied as is; any other string is left to encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s)
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat formats f like encoding/json: the shortest representation
// that round-trips, in 'e' notation below 1e-6 and from 1e21 up (with a
// one-digit negative exponent unpadded), else 'f'. ok is false for NaN and
// the infinities, which JSON cannot represent.
func appendJSONFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 -> e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}
