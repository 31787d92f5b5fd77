package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
)

// mapEvent is Event with its args as a map: encoding/json's encoding of it
// is the oracle the hand encoder is held to.
type mapEvent struct {
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

// sanitized is the map value Float's rule stands for.
func sanitized(v float64) any {
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

// fuzzEvent builds an event from fuzzer inputs, and the same event with its
// args as the equivalent map. argsMode picks nil, empty or populated args;
// populated args hold every kind, keyed in ascending order: strings, both
// integer constructors, a Num, Floats (finite and not), a bool, int lists
// (nil too), a cost column with ±Inf and NaN, a decoded list and the
// zero Arg.
func fuzzEvent(t *testing.T, name, str string, ts, f float64, n int64, hasDur bool, argsMode byte, reqs []byte) (Event, mapEvent) {
	ev := Event{Name: name, Cat: str, Ph: "i", Ts: ts, Pid: int(n % 1000), Tid: -int(n % 7), ID: asyncID(n), Scope: str}
	if hasDur {
		d := f
		ev.Dur = &d
	}
	mev := mapEvent{Name: ev.Name, Cat: ev.Cat, Ph: ev.Ph, Ts: ev.Ts, Dur: ev.Dur, Pid: ev.Pid, Tid: ev.Tid, ID: ev.ID, Scope: ev.Scope}
	switch argsMode % 3 {
	case 0:
		return ev, mev
	case 1:
		ev.Args, mev.Args = Args{}, map[string]any{}
		return ev, mev
	}
	ints := make([]int, len(reqs))
	for i, r := range reqs {
		ints[i] = int(r) - 128
	}
	// The column's labels must be unique; a fuzzed one equal to a fixed one
	// is dropped.
	labels, values := []string{"ring", "hetero@sw1", "ina@sw1", "ina@sw2", "x"}, []float64{ts, f, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, l := range []string{str, name} {
		if !slices.Contains(labels, l) {
			labels = append(labels, l)
			values = append(values, f)
		}
	}
	col := NewFloatColumn(labels)
	col.Values = values
	colMap := make(map[string]any, len(labels))
	for i, l := range labels {
		colMap[l] = sanitized(values[i])
	}
	// A decoded list, as FromTrace's events hold one: the map equivalent is
	// the same document decoded into a map.
	listJSON, err := json.Marshal(map[string]any{"list": []any{str, name, float64(n % 1000), nil, map[string]any{"k": true}}})
	if err != nil {
		t.Fatal(err)
	}
	var list Args
	var listMap map[string]any
	if err := json.Unmarshal(listJSON, &list); err != nil || len(list) != 1 {
		t.Fatalf("decode %s: %v %v", listJSON, list, err)
	}
	if err := json.Unmarshal(listJSON, &listMap); err != nil {
		t.Fatal(err)
	}

	type entry struct {
		arg Arg
		val any
	}
	entries := map[string]entry{}
	add := func(a Arg, v any) { entries[a.Key] = entry{a, v} }
	add(Str("name", str), str)
	add(Str(str, name), name)
	add(Int("int", int(n)), int(n))
	add(Int64("int64", n), n)
	add(Num("num", f), f)
	add(Float("float", f), sanitized(f))
	add(Float("ts", ts), sanitized(ts))
	add(Float("inf", math.Inf(-1)), "-Inf")
	add(Bool("bool", hasDur), hasDur)
	add(Ints("reqs", ints), ints)
	add(Ints("nil-reqs", nil), []int(nil))
	add(Col("costs", col), colMap)
	add(list[0], listMap["list"])
	add(Arg{Key: "none"}, nil)
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	mev.Args = make(map[string]any, len(keys))
	for _, k := range keys {
		ev.Args = append(ev.Args, entries[k].arg)
		mev.Args[k] = entries[k].val
	}
	return ev, mev
}

// FuzzAppendEvent: appendEvent equals json.Marshal of the same event with
// its args as a map, byte for byte, and fails exactly when json.Marshal
// does, leaving the buffer as it was and returning json.Marshal's error for
// the event. Args.MarshalJSON agrees with both.
func FuzzAppendEvent(f *testing.F) {
	f.Add("request", "request", 1e6, 2.5e6, int64(7), true, byte(2), []byte{0, 200})
	f.Add("policy-select", "sched", 0.0, 0.25, int64(1), false, byte(2), []byte{128, 129, 130})
	// Fuzzed keys and labels equal to fixed ones.
	f.Add("ring", "int", 1.0, 1.0, int64(3), true, byte(2), []byte{})
	f.Add("x", "costs", 1.0, 1.0, int64(3), true, byte(2), []byte{})
	// HTML characters, non-ASCII text, invalid UTF-8, U+2028/U+2029.
	f.Add("<a&b>", "x<y", 1.0, 1.0, int64(3), true, byte(2), []byte{})
	f.Add("héllo", "日本", 1.0, 1.0, int64(3), false, byte(2), []byte{})
	f.Add("bad\xff\xfe", "\x00\x1f\x7f", 1.0, 1.0, int64(3), false, byte(2), []byte{})
	f.Add("line\u2028sep\u2029", `q"b\s`, 1.0, 1.0, int64(3), true, byte(2), []byte{})
	// Floats at the 'f'/'e' switch points and at the extremes.
	for _, v := range []float64{1e-7, 1e-6, 1e20, 1e21, math.Copysign(0, -1), math.MaxFloat64, -1e-7, 5e-324, 123456789.125} {
		f.Add("x", "y", v, v, int64(1), true, byte(2), []byte{1})
	}
	// Non-finite floats: json.Marshal rejects them outside Float and the
	// column.
	f.Add("x", "y", math.Inf(1), 1.0, int64(1), false, byte(0), []byte{})
	f.Add("x", "y", 1.0, math.NaN(), int64(1), true, byte(2), []byte{})
	f.Add("x", "y", math.Inf(-1), 1.0, int64(1), false, byte(2), []byte{})
	// Negative ids, nil and empty Args, nil and non-nil Dur.
	f.Add("allreduce", "collective", 5.0, 0.0, int64(-42), false, byte(0), []byte{})
	f.Add("allreduce", "collective", 5.0, 0.0, int64(math.MinInt64), true, byte(1), []byte{})
	f.Add("allreduce", "", 5.0, 0.0, int64(math.MaxInt64), true, byte(0), []byte{})
	f.Fuzz(func(t *testing.T, name, str string, ts, fv float64, n int64, hasDur bool, argsMode byte, reqs []byte) {
		if got, want := asyncID(n), fmt.Sprintf("0x%x", n); got != want {
			t.Fatalf("asyncID(%d) = %q, want %q", n, got, want)
		}
		ev, mev := fuzzEvent(t, name, str, ts, fv, n, hasDur, argsMode, reqs)
		prefix := []byte("prefix,")
		got, gerr := appendEvent(append([]byte(nil), prefix...), ev)
		want, werr := json.Marshal(mev)
		viaArgs, aerr := json.Marshal(ev)
		if werr != nil {
			if gerr == nil || aerr == nil || gerr.Error() != aerr.Error() {
				t.Fatalf("appendEvent error %v, json.Marshal errors %v (map) and %v (Args)", gerr, werr, aerr)
			}
			if !bytes.Equal(got, prefix) {
				t.Fatalf("failed appendEvent changed the buffer: %q", got)
			}
			return
		}
		if gerr != nil || aerr != nil {
			t.Fatalf("appendEvent: %v; Args.MarshalJSON: %v; json.Marshal of the map: %s", gerr, aerr, want)
		}
		if !bytes.Equal(got, append(prefix, want...)) {
			t.Fatalf("appendEvent differs from json.Marshal:\n got  %s\n want %s%s", got, prefix, want)
		}
		if !bytes.Equal(viaArgs, want) {
			t.Fatalf("Args.MarshalJSON differs from the map:\n got  %s\n want %s", viaArgs, want)
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
	tr.InstantAt(3, ControlTID, "sched", "rate-probe", Args{Float("value", 1.5e-7)})
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
	tr.Instant(ControlTID, "c", "bad", Args{Num("v", math.NaN())})
	if err := tr.CloseStream(); err == nil {
		t.Error("CloseStream after a NaN arg should fail")
	}
	if err := tr.CloseStream(); err == nil || strings.Contains(buf.String(), "bad") {
		t.Errorf("second CloseStream after a NaN arg: err %v, wrote %q", err, buf.Bytes())
	}
}

// policySelectArgs mirrors the online policy's audit instant: four policies'
// costs, one priced out.
func policySelectArgs() Args {
	costs := NewFloatColumn([]string{"ring", "ina-sync@sw1", "ina-sync@sw2", "hetero@sw1"})
	costs.Values = []float64{0.125, 0.0625, math.Inf(1), 0.09375}
	return Args{
		Int64("bytes", 4<<20), Col("costs", costs), Str("group", "decode/0/0"),
		Str("policy", "ina-sync@sw1"), Str("reason", "table"), Ints("reqs", []int{3, 4, 9}),
		Str("scheme", "ina-sync"), Bool("stalled", false),
	}
}

// BenchmarkAppendEventPolicySelect encodes the online policy's audit instant
// into a reused buffer, as the streaming tracer does once per pick.
func BenchmarkAppendEventPolicySelect(b *testing.B) {
	ev := Event{Name: "policy-select", Cat: "sched", Ph: "i", Ts: 1.25e6, Pid: 1,
		Tid: ControlTID, Scope: "t", Args: policySelectArgs()}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = appendEvent(buf[:0], ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceStreamWrite measures each side of the span stream per
// event. The bare name is what the recording goroutine pays: the copy into
// a chunk plus its share of the hand-offs, to an encoder that hands each
// chunk straight back. /encode is what the encoder goroutine pays to encode
// the event onto the buffered writer, and /json.Marshal is the reflection
// baseline.
func BenchmarkTraceStreamWrite(b *testing.B) {
	dur := 2.5e6
	events := []struct {
		name string
		ev   Event
	}{
		{"policy-select", Event{Name: "policy-select", Cat: "sched", Ph: "i", Ts: 1.25e6, Pid: 1,
			Tid: ControlTID, Scope: "t", Args: policySelectArgs()}},
		{"request-span", Event{Name: "request", Cat: "request", Ph: "X", Ts: 1e6, Dur: &dur, Pid: 1,
			Tid: 8, Args: Args{Int("id", 7), Int("input", 512), Int("output", 128), Str("trace_id", "p1-r7")}}},
	}
	for _, c := range events {
		b.Run(c.name, func(b *testing.B) {
			s := newTraceStream(io.Discard)
			go func() {
				for {
					ch := <-s.full
					last := ch.last
					ch.reset()
					s.free <- ch
					if last {
						s.done <- nil
						return
					}
				}
			}()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.record(&c.ev)
			}
			b.StopTimer()
			if err := s.stop(); err != nil {
				b.Fatal(err)
			}
		})
		b.Run(c.name+"/encode", func(b *testing.B) {
			s := newTraceStream(io.Discard)
			ch := s.cur
			for len(ch.events) < chunkEvents {
				ch.add(&c.ev)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(ch.events) {
				s.encodeChunk(ch)
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
