package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"time"
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
	tr.AsyncEnd("collective", "allreduce", "0x1")
	tr.Complete(3, "request", "request", 0.5, 2.25, Args{Int("id", 2)})
	tr.BeginProcess("policy-B")
	*clock = 0.25
	tr.Instant(ControlTID, "autoscale", "scale-out", nil)
}

// streamed returns a tracer streaming into a fresh buffer. The stream is
// closed when the test ends, if the test has not closed it.
func streamed(t *testing.T, clock func() float64) (*Tracer, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	tr := NewTracer(clock)
	if err := tr.StreamTo(&buf); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.CloseStream() })
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
// reaches the writer, completed, on CloseStream.
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
	if got.Len() != 0 {
		t.Errorf("StreamTo wrote %q before CloseStream", got.Bytes())
	}
	if err := st.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if want := docPrefix + docSuffix; got.String() != want {
		t.Errorf("closed fresh stream %q, want %q", got.Bytes(), want)
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

// TestCloseStreamStopsTheEncoder: each stream runs one encoder goroutine,
// and CloseStream stops it, so closed streams leave no goroutine behind.
func TestCloseStreamStopsTheEncoder(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		tr := NewTracer(func() float64 { return 1 })
		if err := tr.StreamTo(io.Discard); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2*chunkEvents; j++ {
			tr.Instant(ControlTID, "c", "e", Args{Int("j", j)})
		}
		if err := tr.CloseStream(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after closing 8 streams, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamedPolicySelectAllocs: a warm streamed policy-select instant, an
// Ints list and a cost column among its arguments, allocates nothing on the
// recording goroutine or the encoder's, across many chunk hand-offs.
func TestStreamedPolicySelectAllocs(t *testing.T) {
	tr, _ := streamed(t, func() float64 { return 1 })
	args := policySelectArgs()
	pick := func() { tr.Instant(ControlTID, "sched", "policy-select", args) }
	for i := 0; i < 2*streamChunks*chunkEvents; i++ {
		pick()
	}
	if got := testing.AllocsPerRun(10*chunkEvents, pick); got != 0 {
		t.Errorf("streamed policy-select allocates %v per call, want 0", got)
	}
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
}

// failingWriter takes the first left bytes written to it and fails every
// write that goes past them.
type failingWriter struct {
	bytes.Buffer
	left int
}

var errWriterFull = errors.New("writer full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) <= w.left {
		w.left -= len(p)
		return w.Buffer.Write(p)
	}
	n := max(w.left, 0)
	w.left = 0
	w.Buffer.Write(p[:n])
	return n, errWriterFull
}

// refStream is the synchronous span stream the streamed one is held to:
// appendEvent straight into a bufio.Writer of the same size, with the
// stream's error rules (first error kept, later events dropped, a closed
// stream inert).
type refStream struct {
	w   *bufio.Writer
	n   int
	err error
}

func newRefStream(w io.Writer) *refStream {
	r := &refStream{w: bufio.NewWriterSize(w, 1<<16)}
	r.w.WriteString(docPrefix)
	return r
}

func (r *refStream) write(ev Event) {
	if r.err != nil {
		return
	}
	var b []byte
	if r.n > 0 {
		b = append(b, ',')
	}
	b, err := appendEvent(b, ev)
	if err == nil {
		_, err = r.w.Write(b)
	}
	if err != nil {
		r.err = err
		return
	}
	r.n++
}

func (r *refStream) close() error {
	if r.err == errStreamClosed {
		return nil
	}
	if r.err != nil {
		return r.err
	}
	_, err := r.w.WriteString(docSuffix)
	if err == nil {
		err = r.w.Flush()
	}
	r.err = errStreamClosed
	return err
}

// FuzzTraceStream: the streamed tracer writes the same bytes as the
// synchronous reference and returns the same error from every CloseStream.
// Each op byte records one event, and the ops
// repeat 1+reps%16 times, so an input spans several chunks. The events
// carry every Arg kind; the emitter rewrites its Args, Ints and column
// buffers right after each event; the event at index nan carries a NaN Num;
// and the writer fails after failAt bytes (never when failAt is negative).
// The reference encodes each event from the tap, while the emitter's
// buffers still hold it.
func FuzzTraceStream(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(15), uint16(math.MaxUint16), int32(-1))
	f.Add([]byte{3, 11, 19, 27, 35, 43, 51, 59, 7}, uint8(15), uint16(100), int32(-1))
	f.Add([]byte{2, 3, 5, 4, 6, 7, 3, 3}, uint8(9), uint16(math.MaxUint16), int32(70000))
	f.Add([]byte{3, 5, 7, 2}, uint8(15), uint16(math.MaxUint16), int32(1000))
	f.Add([]byte{0, 7, 3, 7}, uint8(3), uint16(2), int32(0))
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 255}, uint8(15), uint16(math.MaxUint16), int32(-1))
	var decoded Args
	if err := json.Unmarshal([]byte(`{"list":[1.5,"x",null,{"k":true}]}`), &decoded); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, ops []byte, reps uint8, nan uint16, failAt int32) {
		if len(ops) > 256 {
			return
		}
		limit := math.MaxInt
		if failAt >= 0 {
			limit = int(failAt)
		}
		got, want := &failingWriter{left: limit}, &failingWriter{left: limit}
		var clock float64
		tr := NewTracer(func() float64 { return clock })
		if err := tr.StreamTo(got); err != nil {
			t.Fatal(err)
		}
		ref := newRefStream(want)
		tr.Tap(ref.write)

		labels := []string{"ring", "hetero@sw1", "ina<sw2>", "x"}
		col := NewFloatColumn(labels)
		vals := make([]float64, len(labels))
		ints := make([]int, 32)
		var args Args
		index := 0
		for rep := 0; rep <= int(reps%16); rep++ {
			for _, op := range ops {
				clock += 0.001
				v := int(op >> 3)
				args = args[:0]
				for i := range vals {
					vals[i] = float64(v*(i+1)) / 7
				}
				vals[v%len(vals)] = [...]float64{math.Inf(1), math.Inf(-1), math.NaN(), -0.0}[v%4]
				col.Values = vals
				for i := range ints {
					ints[i] = v*100 + i - 50
				}
				if index == int(nan) {
					args = append(args, Num("nan", math.NaN()))
				}
				switch op % 8 {
				case 0:
					tr.BeginProcess(fmt.Sprintf("policy-%d", v))
				case 1:
					tr.ThreadName(v, "thread \"q\" é")
				case 2:
					args = append(args, Int("id", v), Int("input", 512), Str("trace_id", fmt.Sprintf("p1-r%d", v)))
					tr.Complete(v+1, "request", "request", clock-0.5, clock, args)
				case 3:
					args = append(args, Int64("bytes", int64(v)<<20), Col("costs", col), Str("group", "decode/0/0"),
						Ints("reqs", ints[:v%len(ints)]), Str("scheme", "ring"), Bool("stalled", v%2 == 1))
					tr.Instant(ControlTID, "sched", "policy-select", args)
				case 4:
					args = append(args, Float("cost", vals[v%len(vals)]), Float("inf", math.Inf(1)), Num("rate", float64(v)*1e-7), Str("s", "<&>"))
					tr.InstantAt(clock*2, ControlTID, "fault", "link-degrade", args)
				case 5:
					args = append(args, Int("group", v), Ints("reqs", ints[v%4:v%4+v%8]), Str("scheme", "ina-sync"))
					id := tr.AsyncBegin("collective", "allreduce", int64(v)-8, args)
					ints[0], args[0] = -1, Int("group", -1)
					tr.AsyncEnd("collective", "allreduce", id)
				case 6:
					args = append(args, decoded[0], Arg{Key: "none"}, Ints("nil", nil), Ints("empty", ints[:0]))
					tr.Instant(v, "autoscale", "scale-out", args)
				case 7:
					args = append(args, Int("requests", v), Ints("reqs", ints[:v%8]))
					tr.Complete(ControlTID, "batch", "prefill", clock-0.25, clock, args)
				}
				// The emitter reuses its buffers for the next event.
				for i := range ints {
					ints[i] = math.MinInt
				}
				for i := range vals {
					vals[i] = -1
				}
				for i := range args {
					args[i] = Str("stale", "stale")
				}
				index++
			}
		}
		if g, w := tr.CloseStream(), ref.close(); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("CloseStream = %v, reference %v", g, w)
		}
		tr.Instant(ControlTID, "late", "event", nil)
		if g, w := tr.CloseStream(), ref.close(); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("second CloseStream = %v, reference %v", g, w)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("streamed bytes differ from the reference:\n got  %q\n want %q", got.Bytes(), want.Bytes())
		}
	})
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
