package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestTracerExportIsValidChromeJSON(t *testing.T) {
	export := func() []byte {
		clock := 0.0
		tr, buf := streamed(t, func() float64 { return clock })
		if pid := tr.BeginProcess("heroserve"); pid != 1 {
			t.Fatalf("first pid = %d, want 1", pid)
		}
		tr.ThreadName(ControlTID, "control-plane")
		tr.Complete(5, "request", "request", 1.0, 3.0, Args{Int("id", 4)})
		tr.Complete(5, "request", "prefill", 1.0, 2.0, nil)
		clock = 1.5
		tr.Instant(ControlTID, "sched", "policy-select", Args{Float("cost", math.Inf(1))})
		tr.AsyncBegin("collective", "allreduce", 7, Args{Str("scheme", "ring")})
		clock = 2.5
		tr.AsyncEnd("collective", "allreduce", "0x7")
		if err := tr.CloseStream(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	out := export()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("got %d events, want 7", len(doc.TraceEvents))
	}
	// Complete spans are in microseconds.
	req := doc.TraceEvents[2]
	if req["ph"] != "X" || req["ts"].(float64) != 1e6 || req["dur"].(float64) != 2e6 {
		t.Errorf("bad complete span: %v", req)
	}
	inst := doc.TraceEvents[4]
	if inst["ph"] != "i" || inst["s"] != "t" {
		t.Errorf("bad instant: %v", inst)
	}
	if inst["args"].(map[string]any)["cost"] != "+Inf" {
		t.Errorf("Inf arg not sanitized: %v", inst)
	}
	b, e := doc.TraceEvents[5], doc.TraceEvents[6]
	if b["ph"] != "b" || e["ph"] != "e" || b["id"] != e["id"] || b["id"] != "0x7" {
		t.Errorf("bad async pair: %v / %v", b, e)
	}

	// Determinism: identical call sequence => identical bytes.
	if !bytes.Equal(out, export()) {
		t.Error("same call sequence produced different bytes")
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.BeginProcess("p")
	tr.ThreadName(0, "t")
	tr.Complete(0, "c", "n", 0, 1, nil)
	tr.Instant(0, "c", "n", nil)
	tr.InstantAt(1, 0, "c", "n", nil)
	tr.AsyncBegin("c", "n", 1, nil)
	tr.AsyncEnd("c", "n", "0x1")
	if tr.Len() != 0 {
		t.Error("nil tracer must record nothing")
	}
	if tr.StreamTo(nil) != nil || tr.CloseStream() != nil {
		t.Error("nil tracer stream calls should be no-ops")
	}
}

// TestTracerWithoutStreamCountsAndTaps: with no writer the tracer encodes
// nothing, but Len and the tap still see every event.
func TestTracerWithoutStreamCountsAndTaps(t *testing.T) {
	tr := NewTracer(func() float64 { return 0 })
	var tapped int
	tr.Tap(func(Event) { tapped++ })
	tr.BeginProcess("p")
	tr.Instant(ControlTID, "c", "n", Args{Num("v", math.NaN())}) // never encoded
	if tr.Len() != 2 || tapped != 2 {
		t.Errorf("Len = %d, tapped %d; want 2 and 2", tr.Len(), tapped)
	}
	if err := tr.CloseStream(); err != nil {
		t.Errorf("CloseStream without a stream: %v", err)
	}
}

func TestEmptyTracerExportsEmptyArray(t *testing.T) {
	tr, buf := streamed(t, func() float64 { return 0 })
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceEvents == nil || len(doc.TraceEvents) != 0 {
		t.Errorf("want empty traceEvents array, got %v", doc.TraceEvents)
	}
}

// tapped returns the events tr records from now on, as the tap sees them.
func tapped(tr *Tracer) *[]Event {
	var evs []Event
	tr.Tap(func(ev Event) { evs = append(evs, ev) })
	return &evs
}

func TestCompleteClampsBackwardsSpan(t *testing.T) {
	tr := NewTracer(func() float64 { return 0 })
	evs := tapped(tr)
	tr.BeginProcess("p")
	tr.Complete(0, "c", "n", 5, 4, nil)
	ev := (*evs)[1]
	if *ev.Dur != 0 {
		t.Errorf("backwards span dur = %g, want 0", *ev.Dur)
	}
}

// TestTappedCompleteAllocs: a tapped Complete allocates nothing. Its Dur
// points at the tracer's own field, not at a local the tap would move to
// the heap, and the tap reads it during the call.
func TestTappedCompleteAllocs(t *testing.T) {
	tr := NewTracer(func() float64 { return 0 })
	tr.BeginProcess("p")
	var end float64
	tr.Tap(func(ev Event) { end = ev.Ts + *ev.Dur })
	args := Args{Int("req", 1)}
	if got := testing.AllocsPerRun(100, func() { tr.Complete(1, "request", "queue", 1, 3, args) }); got != 0 {
		t.Errorf("tapped Complete allocates %v per call, want 0", got)
	}
	if end != 3e6 {
		t.Errorf("tap read end %g, want 3e6", end)
	}
}

func TestHubAttach(t *testing.T) {
	h := New()
	evs := tapped(h.Trace)
	if h.Now() != 0 {
		t.Error("unattached hub clock should read 0")
	}
	h.Metrics.Gauge("g", "", nil).Set(1) // safe before attach
	clock := 42.0
	h.Attach(func() float64 { return clock }, "policy-A")
	if h.Now() != 42 {
		t.Errorf("Now = %g, want 42", h.Now())
	}
	if h.Trace.Len() != 2 {
		t.Errorf("attach should emit process+thread metadata, got %d events", h.Trace.Len())
	}
	h.Attach(func() float64 { return clock }, "policy-B")
	if (*evs)[2].Pid != 2 {
		t.Errorf("second attach should open pid 2, got %d", (*evs)[2].Pid)
	}
	var nh *Hub
	nh.Attach(nil, "x") // nil hub is a no-op
	if nh.Now() != 0 {
		t.Error("nil hub Now should read 0")
	}
}
