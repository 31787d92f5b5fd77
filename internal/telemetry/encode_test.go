package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// fuzzEvent builds an event from fuzzer inputs; argsMode picks nil, empty or
// populated Args, and the populated map carries every value type the
// simulator emits plus two that only encoding/json knows.
func fuzzEvent(name, str string, ts, f float64, n int64, hasDur bool, argsMode byte, reqs []byte) Event {
	ev := Event{Name: name, Cat: str, Ph: "i", Ts: ts, Pid: int(n % 1000), Tid: -int(n % 7), ID: asyncID(n), Scope: str}
	if hasDur {
		d := f
		ev.Dur = &d
	}
	switch argsMode % 4 {
	case 1:
		ev.Args = map[string]any{}
	case 2, 3:
		ints := make([]int, len(reqs))
		for i, r := range reqs {
			ints[i] = int(r) - 128
		}
		ev.Args = map[string]any{
			"name": str, str: name, "int": int(n), "int64": n, "float": f,
			"bool": hasDur, "reqs": ints, "nil-reqs": []int(nil), "none": nil,
			"costs": map[string]any{"ring": ts, str: f, "hetero": "+Inf", "n": map[string]any{}},
		}
		if argsMode%4 == 3 {
			// Outside the fast path: encoding/json encodes these.
			ev.Args["float32"] = float32(f)
			ev.Args["strings"] = []string{str, name}
			ev.Args["nil-map"] = map[string]any(nil)
		}
	}
	return ev
}

// FuzzAppendEvent: appendEvent equals json.Marshal byte for byte, and fails
// exactly when json.Marshal does, leaving the buffer as it was.
func FuzzAppendEvent(f *testing.F) {
	f.Add("request", "request", 1e6, 2.5e6, int64(7), true, byte(2), []byte{0, 200})
	f.Add("policy-select", "sched", 0.0, 0.25, int64(1), false, byte(3), []byte{128, 129, 130})
	// HTML characters, non-ASCII text, invalid UTF-8, U+2028/U+2029.
	f.Add("<a&b>", "x<y", 1.0, 1.0, int64(3), true, byte(2), []byte{})
	f.Add("héllo", "日本", 1.0, 1.0, int64(3), false, byte(2), []byte{})
	f.Add("bad\xff\xfe", "\x00\x1f\x7f", 1.0, 1.0, int64(3), false, byte(2), []byte{})
	f.Add("line sep ", `q"b\s`, 1.0, 1.0, int64(3), true, byte(2), []byte{})
	// Floats at the 'f'/'e' switch points and at the extremes.
	for _, v := range []float64{1e-7, 1e-6, 1e20, 1e21, math.Copysign(0, -1), math.MaxFloat64, -1e-7, 5e-324, 123456789.125} {
		f.Add("x", "y", v, v, int64(1), true, byte(2), []byte{1})
	}
	// Non-finite floats: json.Marshal rejects them.
	f.Add("x", "y", math.Inf(1), 1.0, int64(1), false, byte(0), []byte{})
	f.Add("x", "y", 1.0, math.NaN(), int64(1), true, byte(2), []byte{})
	// Negative ids, nil and empty Args, nil and non-nil Dur.
	f.Add("allreduce", "collective", 5.0, 0.0, int64(-42), false, byte(0), []byte{})
	f.Add("allreduce", "collective", 5.0, 0.0, int64(math.MinInt64), true, byte(1), []byte{})
	f.Add("allreduce", "", 5.0, 0.0, int64(math.MaxInt64), true, byte(0), []byte{})
	f.Fuzz(func(t *testing.T, name, str string, ts, fv float64, n int64, hasDur bool, argsMode byte, reqs []byte) {
		if got, want := asyncID(n), fmt.Sprintf("0x%x", n); got != want {
			t.Fatalf("asyncID(%d) = %q, want %q", n, got, want)
		}
		ev := fuzzEvent(name, str, ts, fv, n, hasDur, argsMode, reqs)
		prefix := []byte("prefix,")
		got, gerr := appendEvent(append([]byte(nil), prefix...), ev)
		want, werr := json.Marshal(ev)
		if werr != nil {
			if gerr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("appendEvent error %v, json.Marshal error %v", gerr, werr)
			}
			if !bytes.Equal(got, prefix) {
				t.Fatalf("failed appendEvent changed the buffer: %q", got)
			}
			return
		}
		if gerr != nil {
			t.Fatalf("appendEvent: %v; json.Marshal: %s", gerr, want)
		}
		if !bytes.Equal(got, append(prefix, want...)) {
			t.Fatalf("appendEvent differs from json.Marshal:\n got  %s\n want %s%s", got, prefix, want)
		}
	})
}

// TestExportMatchesEncodingJSON: the streamed document of a representative
// run equals encoding/json's encoding of the same events, as the tap saw
// them.
func TestExportMatchesEncodingJSON(t *testing.T) {
	var clock float64
	tr, got := streamed(t, func() float64 { return clock })
	evs := tapped(tr)
	driveTracer(tr, &clock)
	tr.InstantAt(3, ControlTID, "sched", "rate-probe", map[string]any{"value": Float(1.5e-7)})
	tr.Instant(ControlTID, "sched", "policy-select", policySelectArgs())
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	doc := struct {
		DisplayTimeUnit string  `json:"displayTimeUnit"`
		TraceEvents     []Event `json:"traceEvents"`
	}{"ms", *evs}
	if err := json.NewEncoder(&want).Encode(doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("export differs from encoding/json:\n got  %s\n want %s", got.Bytes(), want.Bytes())
	}
}

// TestExportRejectsNonFiniteWithoutWriting: like encoding/json, an event
// with a NaN float fails to encode: CloseStream returns the error, and the
// event never reaches the writer.
func TestExportRejectsNonFiniteWithoutWriting(t *testing.T) {
	tr, buf := streamed(t, func() float64 { return 0 })
	tr.BeginProcess("p")
	tr.Instant(ControlTID, "c", "bad", map[string]any{"v": math.NaN()})
	if err := tr.CloseStream(); err == nil {
		t.Error("CloseStream after a NaN arg should fail")
	}
	if err := tr.Flush(); err == nil || strings.Contains(buf.String(), "bad") {
		t.Errorf("flush after a NaN arg: err %v, wrote %q", err, buf.Bytes())
	}
}

// policySelectArgs mirrors the online policy's audit instant: four policies'
// costs, one priced out.
func policySelectArgs() map[string]any {
	return map[string]any{
		"group": "decode/0/0", "policy": "ina-sync@sw1", "scheme": "ina-sync",
		"reason": "table", "bytes": int64(4 << 20), "stalled": false,
		"costs": map[string]any{
			"ring": 0.125, "ina-sync@sw1": 0.0625, "ina-sync@sw2": Float(math.Inf(1)),
			"hetero@sw1": 0.09375,
		},
		"reqs": []int{3, 4, 9},
	}
}

func BenchmarkTraceStreamWrite(b *testing.B) {
	dur := 2.5e6
	events := []struct {
		name string
		ev   Event
	}{
		{"policy-select", Event{Name: "policy-select", Cat: "sched", Ph: "i", Ts: 1.25e6, Pid: 1,
			Tid: ControlTID, Scope: "t", Args: policySelectArgs()}},
		{"request-span", Event{Name: "request", Cat: "request", Ph: "X", Ts: 1e6, Dur: &dur, Pid: 1,
			Tid: 8, Args: map[string]any{"id": 7, "input": 512, "output": 128, "trace_id": "p1-r7"}}},
	}
	for _, c := range events {
		b.Run(c.name, func(b *testing.B) {
			s := &traceStream{w: bufio.NewWriterSize(io.Discard, 1<<16)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.write(c.ev)
			}
			if s.err != nil {
				b.Fatal(s.err)
			}
		})
		b.Run(c.name+"/json.Marshal", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(c.ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
