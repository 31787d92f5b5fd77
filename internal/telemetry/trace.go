package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"math"
	"slices"
	"strconv"
)

// ControlTID is the trace thread reserved for control-plane events: scheduler
// policy picks, fault instants, autoscale actions. Request spans live on
// thread request-ID+1 so every request gets its own lane in Perfetto.
const ControlTID = 0

// Event is a single Chrome trace-event. Timestamps and durations are in
// microseconds of sim-time (the format's native unit).
type Event struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Tracer accumulates trace events in append order. Because the event loop is
// deterministic, append order is deterministic, and Export writes events
// verbatim — no sorting, no wall-clock.
//
// Two backends share the type: the default buffered backend keeps events in
// memory until Export, and the streaming backend (StreamTo) encodes each
// event to an io.Writer the moment it is recorded, so paper-scale sweeps
// hold O(1) events in RAM. Both backends produce byte-identical documents
// for the same event sequence.
type Tracer struct {
	clock  func() float64
	pid    int // current process id; 0 until the first BeginProcess
	count  int // events recorded across both backends
	events []Event
	stream *traceStream // nil on the buffered backend
	tap    func(Event)  // optional live observer, invoked on every emit
}

// NewTracer returns a buffered tracer reading sim-time (seconds) from clock.
func NewTracer(clock func() float64) *Tracer {
	return &Tracer{clock: clock}
}

// NewStreamTracer returns a tracer that streams every event to w as it is
// recorded (the StreamTracer backend). Call CloseStream when the run is over
// to complete the JSON document.
func NewStreamTracer(clock func() float64, w io.Writer) (*Tracer, error) {
	t := NewTracer(clock)
	if err := t.StreamTo(w); err != nil {
		return nil, err
	}
	return t, nil
}

func usec(seconds float64) float64 { return seconds * 1e6 }

// traceStream is the incremental on-disk backend: a buffered writer plus the
// running element count (for comma placement), the first write error, and
// the encode buffer reused across events.
type traceStream struct {
	w   *bufio.Writer
	n   int
	err error
	buf []byte
}

// errStreamClosed poisons a stream after CloseStream so late events are
// dropped instead of corrupting the finished document.
var errStreamClosed = errors.New("telemetry: trace stream closed")

func (s *traceStream) write(ev Event) {
	if s.err != nil {
		return
	}
	b := s.buf[:0]
	if s.n > 0 {
		b = append(b, ',')
	}
	b, err := appendEvent(b, ev)
	s.buf = b
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(b); err != nil {
		s.err = err
		return
	}
	s.n++
}

// StreamTo switches the tracer to the streaming backend: the document prefix
// and any already-buffered events are written to w immediately, the buffer is
// released, and every subsequent event is encoded straight through. The
// output becomes a complete JSON document only after CloseStream writes the
// suffix; Export is unavailable while streaming. The streamed bytes equal a
// buffered Export of the same events byte-for-byte.
func (t *Tracer) StreamTo(w io.Writer) error {
	if t == nil {
		return nil
	}
	if t.stream != nil {
		return errors.New("telemetry: tracer already streaming")
	}
	s := &traceStream{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := s.w.WriteString(docPrefix); err != nil {
		return err
	}
	for _, ev := range t.events {
		s.write(ev)
	}
	if s.err != nil {
		return s.err
	}
	t.events = nil
	t.stream = s
	return nil
}

// Streaming reports whether the tracer is on the streaming backend.
func (t *Tracer) Streaming() bool { return t != nil && t.stream != nil }

// CloseStream completes the streamed JSON document (suffix + flush) and
// returns the first error encountered anywhere in the stream's lifetime.
// Events recorded after CloseStream are dropped. No-op on buffered tracers.
func (t *Tracer) CloseStream() error {
	if t == nil || t.stream == nil {
		return nil
	}
	s := t.stream
	if s.err == errStreamClosed {
		return nil
	}
	if s.err != nil {
		return s.err
	}
	if _, err := s.w.WriteString(docSuffix); err != nil {
		s.err = errStreamClosed
		return err
	}
	err := s.w.Flush()
	s.err = errStreamClosed
	return err
}

// Tap installs fn as the tracer's live observer: every subsequent event is
// passed to fn the moment it is recorded, on the goroutine that records it,
// regardless of backend. One tap at a time; installing a new one replaces the
// old (the critical-path collector re-taps per serving run). Already-recorded
// events are not replayed. Pass nil to remove.
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

// emit records one event on whichever backend is active.
func (t *Tracer) emit(ev Event) {
	t.count++
	if t.tap != nil {
		t.tap(ev)
	}
	if t.stream != nil {
		t.stream.write(ev)
		return
	}
	t.events = append(t.events, ev)
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
		Args: map[string]any{"name": name},
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
		Args: map[string]any{"name": name},
	})
}

// Complete records a complete ("X") span from start to end sim-seconds. Emit
// parents before children: Perfetto nests same-thread X events by containment
// and breaks ties by array order.
func (t *Tracer) Complete(tid int, cat, name string, start, end float64, args map[string]any) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	dur := usec(end - start)
	t.emit(Event{
		Name: name, Cat: cat, Ph: "X", Ts: usec(start), Dur: &dur,
		Pid: t.pid, Tid: tid, Args: args,
	})
}

// Instant records a thread-scoped instant ("i") event at the current sim-time.
func (t *Tracer) Instant(tid int, cat, name string, args map[string]any) {
	if t == nil {
		return
	}
	t.InstantAt(t.clock(), tid, cat, name, args)
}

// InstantAt records an instant event at an explicit sim-time.
func (t *Tracer) InstantAt(at float64, tid int, cat, name string, args map[string]any) {
	if t == nil {
		return
	}
	t.emit(Event{
		Name: name, Cat: cat, Ph: "i", Ts: usec(at), Pid: t.pid, Tid: tid,
		Scope: "t", Args: args,
	})
}

// AsyncBegin opens an async ("b") span — used for collectives, whose lifetime
// spans many event-loop callbacks. Begin/end pairs match on (cat, id, name).
func (t *Tracer) AsyncBegin(cat, name string, id int64, args map[string]any) {
	if t == nil {
		return
	}
	t.emit(Event{
		Name: name, Cat: cat, Ph: "b", Ts: usec(t.clock()), Pid: t.pid,
		Tid: ControlTID, ID: asyncID(id), Args: args,
	})
}

// AsyncEnd closes an async span opened with AsyncBegin.
func (t *Tracer) AsyncEnd(cat, name string, id int64) {
	if t == nil {
		return
	}
	t.emit(Event{
		Name: name, Cat: cat, Ph: "e", Ts: usec(t.clock()), Pid: t.pid,
		Tid: ControlTID, ID: asyncID(id),
	})
}

// asyncID formats an async span id exactly as fmt.Sprintf("0x%x", id) does
// (a negative id reads "0x-2a").
func asyncID(id int64) string {
	var b [20]byte
	return string(strconv.AppendInt(append(b[:0], "0x"...), id, 16))
}

// Len returns the number of recorded events (0 on the nil tracer). It counts
// across both backends, including events already spilled to disk.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.count
}

// Events returns the recorded events (for tests). It is nil on the streaming
// backend, which does not retain events.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Document framing shared by both backends: the events go between them,
// comma-separated.
const (
	docPrefix = `{"displayTimeUnit":"ms","traceEvents":[`
	docSuffix = "]}\n"
)

// Export writes the trace as Chrome trace-event JSON ("JSON object format"),
// loadable in Perfetto / chrome://tracing. Output is deterministic: args keys
// are sorted, and events are written in append order. The document is built
// in memory and written only if every event encodes.
func (t *Tracer) Export(w io.Writer) error {
	if t == nil {
		return nil
	}
	if t.stream != nil {
		return errors.New("telemetry: tracer is streaming; the trace is already on its writer")
	}
	b := []byte(docPrefix)
	for i, ev := range t.events {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendEvent(b, ev); err != nil {
			return err
		}
	}
	_, err := w.Write(append(b, docSuffix...))
	return err
}

// appendEvent appends ev's JSON encoding to buf, byte for byte what
// json.Marshal(ev) produces, without reflection on the hot path. Args values
// of the types the simulator emits (string, int, int64, float64, bool, []int
// and nested map[string]any) are encoded directly; any other type, and any
// string needing escapes, goes through encoding/json. An event json.Marshal
// rejects (a NaN or infinite float) returns json.Marshal's error and buf
// unchanged.
func appendEvent(buf []byte, ev Event) ([]byte, error) {
	start := len(buf)
	ok := true
	b := append(buf, `{"name":`...)
	b = appendString(b, ev.Name)
	if ev.Cat != "" {
		b = append(b, `,"cat":`...)
		b = appendString(b, ev.Cat)
	}
	b = append(b, `,"ph":`...)
	b = appendString(b, ev.Ph)
	b = append(b, `,"ts":`...)
	b, ok = appendFloat(b, ev.Ts)
	if ev.Dur != nil && ok {
		b = append(b, `,"dur":`...)
		b, ok = appendFloat(b, *ev.Dur)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(ev.Pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(ev.Tid), 10)
	if ev.ID != "" {
		b = append(b, `,"id":`...)
		b = appendString(b, ev.ID)
	}
	if ev.Scope != "" {
		b = append(b, `,"s":`...)
		b = appendString(b, ev.Scope)
	}
	if len(ev.Args) > 0 && ok {
		b = append(b, `,"args":`...)
		b, ok = appendMap(b, ev.Args)
	}
	if !ok {
		_, err := json.Marshal(ev)
		return buf[:start], err
	}
	return append(b, '}'), nil
}

// appendMap encodes m with sorted keys, as encoding/json does. ok is false if
// a value cannot be encoded.
func appendMap(b []byte, m map[string]any) (_ []byte, ok bool) {
	if m == nil {
		return append(b, "null"...), true
	}
	var small [16]string
	keys := small[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		if b, ok = appendValue(b, m[k]); !ok {
			return b, false
		}
	}
	return append(b, '}'), true
}

// appendValue encodes one args value. ok is false if it cannot be encoded.
func appendValue(b []byte, v any) (_ []byte, ok bool) {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...), true
	case string:
		return appendString(b, x), true
	case int:
		return strconv.AppendInt(b, int64(x), 10), true
	case int64:
		return strconv.AppendInt(b, x, 10), true
	case float64:
		return appendFloat(b, x)
	case bool:
		return strconv.AppendBool(b, x), true
	case []int:
		if x == nil {
			return append(b, "null"...), true
		}
		b = append(b, '[')
		for i, n := range x {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(n), 10)
		}
		return append(b, ']'), true
	case map[string]any:
		return appendMap(b, x)
	}
	enc, err := json.Marshal(v)
	if err != nil {
		return b, false
	}
	return append(b, enc...), true
}

// appendString appends s as a JSON string. Printable ASCII other than the
// characters encoding/json escapes (quote, backslash, and the HTML-sensitive
// <, > and &) is copied as is; any other string is left to encoding/json.
func appendString(b []byte, s string) []byte {
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

// appendFloat formats f like encoding/json: the shortest representation that
// round-trips, in 'e' notation below 1e-6 and from 1e21 up (with a
// one-digit negative exponent unpadded), else 'f'. ok is false for NaN and
// the infinities, which JSON cannot represent.
func appendFloat(b []byte, f float64) (_ []byte, ok bool) {
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

// Float sanitizes a float64 for use in trace-event args: encoding/json rejects
// IEEE Inf/NaN, which policy-cost tables legitimately contain (Inf-priced
// faulted paths), so those become strings.
func Float(v float64) any {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return v
}
