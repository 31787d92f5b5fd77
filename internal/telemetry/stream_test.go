package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// driveTracer records a representative event sequence: two processes,
// metadata, instants, an async pair, a complete span, and an Inf-sanitized
// arg — everything the real instrumentation emits.
func driveTracer(tr *Tracer, clock *float64) {
	tr.BeginProcess("policy-A")
	tr.ThreadName(ControlTID, "control-plane")
	*clock = 1
	tr.Instant(ControlTID, "fault", "link-degrade", Args{Int("edge", 0)})
	tr.AsyncBegin("collective", "allreduce", 1,
		Args{Float("cost", math.Inf(1)), Str("scheme", "hetero")})
	*clock = 2.5
	tr.AsyncEnd("collective", "allreduce", 1)
	tr.Complete(3, "request", "request", 0.5, 2.25, Args{Int("id", 2)})
	tr.BeginProcess("policy-B")
	*clock = 0.25
	tr.Instant(ControlTID, "autoscale", "scale-out", nil)
}

// streamed returns a tracer streaming into a fresh buffer.
func streamed(t *testing.T, clock func() float64) (*Tracer, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	tr := NewTracer(clock)
	if err := tr.StreamTo(&buf); err != nil {
		t.Fatal(err)
	}
	return tr, &buf
}

func TestStreamTracerEmptyDocument(t *testing.T) {
	st, got := streamed(t, func() float64 { return 0 })
	if err := st.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if want := `{"displayTimeUnit":"ms","traceEvents":[]}` + "\n"; got.String() != want {
		t.Errorf("empty stream %q, want %q", got.Bytes(), want)
	}
}

// TestStreamToFlushesBufferedPrefix: the tracer keeps no events, so there
// is no recorded prefix to replay — StreamTo after recorded events fails and
// writes nothing. StreamTo before the run buffers the document prefix, which
// reaches the writer on Flush.
func TestStreamToFlushesBufferedPrefix(t *testing.T) {
	var clock float64
	tr := NewTracer(func() float64 { return clock })
	tr.BeginProcess("policy-A")
	tr.Instant(ControlTID, "fault", "link-degrade", Args{Int("edge", 0)})
	var late bytes.Buffer
	if err := tr.StreamTo(&late); err == nil {
		t.Error("StreamTo after recorded events should fail")
	}
	if late.Len() != 0 {
		t.Errorf("refused StreamTo wrote %q", late.Bytes())
	}
	driveTracer(tr, &clock) // the refused tracer keeps recording
	if err := tr.CloseStream(); err != nil {
		t.Errorf("CloseStream after a refused StreamTo: %v", err)
	}
	if late.Len() != 0 {
		t.Errorf("refused writer received %q", late.Bytes())
	}

	st, got := streamed(t, func() float64 { return 0 })
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if got.String() != docPrefix {
		t.Errorf("flushed fresh stream %q, want the document prefix %q", got.Bytes(), docPrefix)
	}
}

// TestStreamingTracerRefusesExportAndDoubleStream: the stream is the only
// output (there is no Export), so a second StreamTo fails, and neither the
// second writer nor the first stream's document sees it.
func TestStreamingTracerRefusesExportAndDoubleStream(t *testing.T) {
	var clock float64
	tr, got := streamed(t, func() float64 { return clock })
	var second bytes.Buffer
	if err := tr.StreamTo(&second); err == nil {
		t.Error("second StreamTo should fail")
	}
	driveTracer(tr, &clock)
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if second.Len() != 0 {
		t.Errorf("refused second writer received %q", second.Bytes())
	}
	var doc struct{ TraceEvents []Event }
	if err := json.Unmarshal(got.Bytes(), &doc); err != nil {
		t.Fatalf("first stream is not a JSON document after a refused StreamTo: %v", err)
	}
	if len(doc.TraceEvents) != tr.Len() {
		t.Errorf("first stream holds %d events, tracer recorded %d", len(doc.TraceEvents), tr.Len())
	}
}

// TestFlushWritesACompletablePrefix: after Flush the writer holds every
// event so far, ending at an event boundary, so appending docSuffix gives a
// valid document — what the daemon's /trace serves mid-run.
func TestFlushWritesACompletablePrefix(t *testing.T) {
	var clock float64
	tr, got := streamed(t, func() float64 { return clock })
	driveTracer(tr, &clock)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	prefix := got.String()
	var doc struct{ TraceEvents []Event }
	if err := json.Unmarshal([]byte(prefix+docSuffix), &doc); err != nil {
		t.Fatalf("flushed prefix + suffix is not JSON: %v\n%s", err, prefix)
	}
	if len(doc.TraceEvents) != tr.Len() {
		t.Errorf("flushed prefix holds %d events, tracer recorded %d", len(doc.TraceEvents), tr.Len())
	}
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if got.String() != prefix+docSuffix {
		t.Error("CloseStream wrote more than the suffix after a full flush")
	}
	if err := tr.Flush(); err != nil {
		t.Errorf("Flush after CloseStream: %v", err)
	}
}

func TestCloseStreamIdempotentAndDropsLateEvents(t *testing.T) {
	tr, buf := streamed(t, func() float64 { return 0 })
	tr.BeginProcess("p")
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	closedLen := buf.Len()
	tr.Instant(ControlTID, "late", "event", nil) // dropped, not corrupted
	if err := tr.CloseStream(); err != nil {
		t.Errorf("second CloseStream: %v", err)
	}
	if buf.Len() != closedLen {
		t.Error("events after CloseStream leaked into the document")
	}
	// A tracer streaming nowhere ignores CloseStream entirely.
	if err := NewTracer(func() float64 { return 0 }).CloseStream(); err != nil {
		t.Errorf("CloseStream without a stream: %v", err)
	}
}
