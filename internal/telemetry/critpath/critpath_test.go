package critpath

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"heroserve/internal/telemetry"
)

// synthetic emits one request's lifecycle through a tracer tapped by an
// analyzer: queue [0,1), prefill [1,3) with an allreduce [1.5,2) and a
// pipeline transfer [2,2.5), kv [3,4), decode [4,8) with an allreduce
// [5,6) and a fault stall [6.5,7).
func synthetic(t *testing.T) *Analyzer {
	t.Helper()
	clock := 0.0
	tr := telemetry.NewTracer(func() float64 { return clock })
	a := New()
	tr.Tap(a.Feed)
	tr.BeginProcess("planned")

	clock = 1.5
	tr.AsyncBegin("collective", "allreduce", 1,
		telemetry.Args{telemetry.Ints("reqs", []int{0}), telemetry.Str("scheme", "ring")})
	clock = 2.0
	tr.AsyncEnd("collective", "allreduce", "0x1")
	tr.AsyncBegin("pipeline", "pipeline_stage", 2,
		telemetry.Args{telemetry.Ints("reqs", []int{0}), telemetry.Int("stage", 2)})
	clock = 2.5
	tr.AsyncEnd("pipeline", "pipeline_stage", "0x2")
	clock = 5.0
	tr.AsyncBegin("collective", "allreduce", 3,
		telemetry.Args{telemetry.Ints("reqs", []int{0}), telemetry.Str("scheme", "ina-hetero")})
	clock = 6.0
	tr.AsyncEnd("collective", "allreduce", "0x3")
	tr.InstantAt(6.5, telemetry.ControlTID, "fault", "link-degrade",
		telemetry.Args{telemetry.Num("duration", 0.5)})

	// Completion-time span emission, parent first (mirrors emitRequestSpans).
	tr.Complete(1, "request", "request", 0, 8, telemetry.Args{telemetry.Int("id", 0), telemetry.Int("input", 100), telemetry.Int("output", 5), telemetry.Str("trace_id", "p1-r0")})
	req := telemetry.Args{telemetry.Int("req", 0)}
	tr.Complete(1, "request", "queue", 0, 1, req)
	tr.Complete(1, "request", "prefill", 1, 3, req)
	tr.Complete(1, "request", "kv-transfer", 3, 4, req)
	tr.Complete(1, "request", "decode", 4, 8, telemetry.Args{telemetry.Int("req", 0), telemetry.Int("tokens", 4)})
	return a
}

func TestAnalyzerDecomposition(t *testing.T) {
	a := synthetic(t)
	done := a.Finalized()
	if len(done) != 1 {
		t.Fatalf("finalized %d requests, want 1", len(done))
	}
	b := done[0]
	if b.TraceID != "p1-r0" || b.PID != 1 || b.Req != 0 {
		t.Errorf("identity = %+v", b)
	}
	wantTTFT := map[string]float64{
		StageQueue:          1.0,
		StagePrefillCompute: 1.0, // [1,1.5) + [2.5,3)
		"allreduce-ring":    0.5,
		StagePipeline:       0.5,
	}
	for s, want := range wantTTFT {
		if got := b.TTFTStages[s]; math.Abs(got-want) > 1e-9 {
			t.Errorf("ttft[%s] = %v, want %v", s, got, want)
		}
	}
	if len(b.TTFTStages) != len(wantTTFT) {
		t.Errorf("ttft stages = %v", b.TTFTStages)
	}
	wantE2E := map[string]float64{
		StageQueue:             1.0,
		StagePrefillCompute:    1.0,
		"allreduce-ring":       0.5,
		StagePipeline:          0.5,
		StageKVTransfer:        1.0,
		"allreduce-ina-hetero": 1.0,
		StageFaultStall:        0.5,
		StageDecodeCompute:     2.5, // [4,5) + [6,6.5) + [7,8)
	}
	for s, want := range wantE2E {
		if got := b.E2EStages[s]; math.Abs(got-want) > 1e-9 {
			t.Errorf("e2e[%s] = %v, want %v", s, got, want)
		}
	}
	// The partition identity: stages telescope to TTFT and E2E exactly.
	if math.Abs(b.TTFT-3.0) > 1e-9 || math.Abs(b.E2E-8.0) > 1e-9 {
		t.Errorf("TTFT=%v E2E=%v, want 3, 8", b.TTFT, b.E2E)
	}
	var sum float64
	for _, v := range b.E2EStages {
		sum += v
	}
	if math.Abs(sum-b.E2E) > 1e-9 {
		t.Errorf("stage sum %v != E2E %v", sum, b.E2E)
	}
}

// TestAnalyzerCommBeatsFault: when an allreduce overlaps a fault window, the
// time is charged to communication (the fault's effect is visible as a longer
// allreduce), never double-counted.
func TestAnalyzerCommBeatsFault(t *testing.T) {
	clock := 0.0
	tr := telemetry.NewTracer(func() float64 { return clock })
	a := New()
	tr.Tap(a.Feed)
	tr.BeginProcess("planned")
	tr.InstantAt(1.0, telemetry.ControlTID, "fault", "link-degrade",
		telemetry.Args{telemetry.Num("duration", 2.0)}) // fault [1,3)
	clock = 1.5
	tr.AsyncBegin("collective", "allreduce", 1,
		telemetry.Args{telemetry.Ints("reqs", []int{7}), telemetry.Str("scheme", "ring")})
	clock = 2.5
	tr.AsyncEnd("collective", "allreduce", "0x1")
	tr.Complete(8, "request", "request", 0, 4, telemetry.Args{telemetry.Int("id", 7), telemetry.Int("output", 1), telemetry.Str("trace_id", "p1-r7")})
	req := telemetry.Args{telemetry.Int("req", 7)}
	tr.Complete(8, "request", "queue", 0, 0.5, req)
	tr.Complete(8, "request", "prefill", 0.5, 3.5, req)
	tr.Complete(8, "request", "kv-transfer", 3.5, 4, req) // output<=1: finalizes here

	done := a.Finalized()
	if len(done) != 1 {
		t.Fatalf("finalized %d, want 1 (single-token requests finalize on kv-transfer)", len(done))
	}
	b := done[0]
	want := map[string]float64{
		StageQueue:          0.5,
		"allreduce-ring":    1.0, // [1.5,2.5): comm wins over the overlapping fault
		StageFaultStall:     1.0, // [1,1.5) + [2.5,3)
		StagePrefillCompute: 1.0, // [0.5,1) + [3,3.5)
		StageKVTransfer:     0.5,
	}
	for s, w := range want {
		if got := b.E2EStages[s]; math.Abs(got-w) > 1e-9 {
			t.Errorf("e2e[%s] = %v, want %v", s, got, w)
		}
	}
	if math.Abs(b.E2E-4.0) > 1e-9 {
		t.Errorf("E2E = %v, want 4", b.E2E)
	}
}

func TestAnalyzerIgnoresUntaggedSpans(t *testing.T) {
	clock := 0.0
	tr := telemetry.NewTracer(func() float64 { return clock })
	a := New()
	tr.Tap(a.Feed)
	tr.BeginProcess("planned")
	// Untagged allreduce (telemetry from a non-serving benchmark): no reqs.
	clock = 1.0
	tr.AsyncBegin("collective", "allreduce", 1, telemetry.Args{telemetry.Str("scheme", "ring")})
	clock = 2.0
	tr.AsyncEnd("collective", "allreduce", "0x1")
	tr.Complete(1, "request", "request", 0, 3, telemetry.Args{telemetry.Int("id", 0), telemetry.Int("output", 1), telemetry.Str("trace_id", "p1-r0")})
	req := telemetry.Args{telemetry.Int("req", 0)}
	tr.Complete(1, "request", "queue", 0, 0, req)
	tr.Complete(1, "request", "prefill", 0, 2.5, req)
	tr.Complete(1, "request", "kv-transfer", 2.5, 3, req)
	b := a.Finalized()
	if len(b) != 1 {
		t.Fatalf("finalized %d", len(b))
	}
	if got := b[0].E2EStages[StagePrefillCompute]; math.Abs(got-2.5) > 1e-9 {
		t.Errorf("untagged comm must fall to compute, prefill=%v", got)
	}
}

func TestReportDeterminismAndDiff(t *testing.T) {
	render := func() string {
		var b bytes.Buffer
		if err := synthetic(t).Report(10).Fprint(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	r1, r2 := render(), render()
	if r1 != r2 {
		t.Fatalf("report not byte-deterministic:\n%s\n---\n%s", r1, r2)
	}
	if !strings.Contains(r1, "p1-r0") {
		t.Errorf("slowest table missing trace id:\n%s", r1)
	}

	// The diff of a serve -out span file: a self-diff changes nothing, and
	// moving one stage total moves exactly its row and the sum over stages.
	data, err := os.ReadFile("testdata/spans.json")
	if err != nil {
		t.Fatal(err)
	}
	an, err := FromTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	base, moved := an.Report(10), an.Report(10)
	if d := telemetry.DiffSeries(base.Series(), base.Series()); len(d.Changed) != 0 || d.Equal == 0 {
		t.Errorf("self-diff = %+v, want 0 changed and some equal", d)
	}
	moved.E2ETotal[StageKVTransfer]++
	d := telemetry.DiffSeries(base.Series(), moved.Series())
	var got []string
	for _, c := range d.Changed {
		got = append(got, c.Series)
	}
	want := []string{`e2e_critical_path_seconds_total{stage="kv-transfer"}`, "e2e_total_seconds"}
	if !slices.Equal(got, want) || len(d.OnlyA)+len(d.OnlyB) != 0 {
		t.Errorf("diff after moving kv-transfer = %+v, want changed %q", d, want)
	}
}

// TestFromTraceRoundTrip: analyzing a trace offline (through the JSON
// export) must produce the same breakdown as the live tap.
func TestFromTraceRoundTrip(t *testing.T) {
	clock := 0.0
	tr := telemetry.NewTracer(func() float64 { return clock })
	var doc bytes.Buffer
	if err := tr.StreamTo(&doc); err != nil {
		t.Fatal(err)
	}
	live := New()
	tr.Tap(live.Feed)
	tr.BeginProcess("planned")
	clock = 1.0
	tr.AsyncBegin("collective", "allreduce", 1, telemetry.Args{telemetry.Ints("reqs", []int{0, 1}), telemetry.Str("scheme", "ina-sync")})
	clock = 1.5
	tr.AsyncEnd("collective", "allreduce", "0x1")
	for id := 0; id < 2; id++ {
		tid := id + 1
		tr.Complete(tid, "request", "request", 0, 3, telemetry.Args{telemetry.Int("id", id), telemetry.Int("output", 1), telemetry.Str("trace_id", "p1-r"+string(rune('0'+id)))})
		req := telemetry.Args{telemetry.Int("req", id)}
		tr.Complete(tid, "request", "queue", 0, 0.5, req)
		tr.Complete(tid, "request", "prefill", 0.5, 2, req)
		tr.Complete(tid, "request", "kv-transfer", 2, 3, req)
	}

	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	offline, err := FromTrace(&doc)
	if err != nil {
		t.Fatal(err)
	}
	if offline.Process(1) != "planned" {
		t.Errorf("process name lost in round trip: %q", offline.Process(1))
	}

	lr, or := live.Report(10), offline.Report(10)
	var lb, ob bytes.Buffer
	if err := lr.Fprint(&lb); err != nil {
		t.Fatal(err)
	}
	if err := or.Fprint(&ob); err != nil {
		t.Fatal(err)
	}
	if lb.String() != ob.String() {
		t.Fatalf("live vs offline mismatch:\n%s\n---\n%s", lb.String(), ob.String())
	}
	// Both requests share the allreduce: each is charged the full 0.5s (the
	// span was on each one's critical path).
	for _, b := range or.Slowest {
		if got := b.E2EStages["allreduce-ina-sync"]; math.Abs(got-0.5) > 1e-9 {
			t.Errorf("req %d allreduce share = %v, want 0.5", b.Req, got)
		}
	}
}

func TestFromTraceErrors(t *testing.T) {
	if _, err := FromTrace(strings.NewReader("{not json")); err == nil {
		t.Error("malformed JSON should error")
	}
	if _, err := FromTrace(strings.NewReader(`{"traceEvents":[]}`)); err != ErrNoEvents {
		t.Errorf("empty trace error = %v, want ErrNoEvents", err)
	}
}

// FuzzFromTrace: FromTrace never panics, a trace it accepts finalizes bit
// for bit what the reference analyzer finalizes from the same events, and
// its report renders without panicking and self-diffs to no change. The
// seed is a two-request serve -out spans.json.
func FuzzFromTrace(f *testing.F) {
	seed, err := os.ReadFile("testdata/spans.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"traceEvents":[{"name":"request","cat":"request","ph":"X","ts":0,"dur":-5,"pid":1,"tid":1,"args":{"id":0,"output":-1}}]}`))
	f.Add([]byte(`{"traceEvents":[{"name":"allreduce","cat":"collective","ph":"e","ts":1e308,"pid":1,"tid":0,"id":"0x1"}]}`))
	// A negative request ID beside in-window and far-above ones.
	f.Add([]byte(`{"traceEvents":[` +
		`{"name":"allreduce","cat":"collective","ph":"b","ts":5,"pid":1,"tid":0,"id":"0x1","args":{"reqs":[-1,3,1000],"scheme":"ring"}},` +
		`{"name":"allreduce","cat":"collective","ph":"e","ts":7,"pid":1,"tid":0,"id":"0x1"},` +
		`{"name":"request","cat":"request","ph":"X","ts":0,"dur":10,"pid":1,"tid":1,"args":{"id":-1,"output":2}},` +
		`{"name":"queue","cat":"request","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"req":-1}},` +
		`{"name":"prefill","cat":"request","ph":"X","ts":1,"dur":2,"pid":1,"tid":1,"args":{"req":-1}},` +
		`{"name":"kv-transfer","cat":"request","ph":"X","ts":3,"dur":1,"pid":1,"tid":1,"args":{"req":-1}},` +
		`{"name":"decode","cat":"request","ph":"X","ts":4,"dur":6,"pid":1,"tid":1,"args":{"req":-1}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := FromTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		events, err := decodeTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("FromTrace accepted what decodeTrace rejects: %v", err)
		}
		ref := newRefAnalyzer()
		for _, ev := range events {
			ref.Feed(ev)
		}
		if d := diffBreakdowns(a.Finalized(), ref.Finalized()); d != "" {
			t.Fatalf("analyzer and reference disagree: %s", d)
		}
		r := a.Report(3)
		if err := r.Fprint(io.Discard); err != nil {
			t.Fatalf("render accepted trace: %v", err)
		}
		if d := telemetry.DiffSeries(r.Series(), r.Series()); len(d.Changed) != 0 {
			t.Fatalf("self-diff of an accepted trace changed %+v", d.Changed)
		}
	})
}

// partitionRef is the reference partition: for every elementary segment it
// scans every clipped span for the winner, O(n^2) per request window. The
// sweep in partition must reproduce it bit for bit.
func partitionRef(out map[string]float64, w window, computeStage string, comm, pipe, faults []interval) {
	type clipped struct {
		interval
		prio int // lower wins
	}
	var spans []clipped
	add := func(ivs []interval, prio int, stage string) {
		for _, iv := range ivs {
			s, e := iv.start, iv.end
			if s < w.start {
				s = w.start
			}
			if e > w.end {
				e = w.end
			}
			if e <= s {
				continue
			}
			st := iv.stage
			if stage != "" {
				st = stage
			}
			spans = append(spans, clipped{interval{s, e, st}, prio})
		}
	}
	add(comm, 0, "")
	add(pipe, 1, StagePipeline)
	add(faults, 2, "")
	if len(spans) == 0 {
		addStage(out, computeStage, w.end-w.start)
		return
	}
	// Elementary segments between sorted boundary points.
	pts := make([]float64, 0, 2*len(spans)+2)
	pts = append(pts, w.start, w.end)
	for _, sp := range spans {
		pts = append(pts, sp.start, sp.end)
	}
	sort.Float64s(pts)
	for i := 0; i+1 < len(pts); i++ {
		s, e := pts[i], pts[i+1]
		if e <= s {
			continue
		}
		mid := s + (e-s)/2
		var best *clipped
		for j := range spans {
			sp := &spans[j]
			if sp.start <= mid && mid < sp.end {
				if best == nil || sp.prio < best.prio ||
					(sp.prio == best.prio && compareStages(sp.stage, best.stage) < 0) {
					best = sp
				}
			}
		}
		stage := computeStage
		if best != nil {
			stage = best.stage
		}
		addStage(out, stage, e-s)
	}
}

// samePartition fails unless got and want hold the same stages with
// bit-identical sums.
func samePartition(t *testing.T, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("stages differ:\n got  %v\n want %v", got, want)
	}
	for s, w := range want {
		g, ok := got[s]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("stage %q = %v (present %v), want %v\n got  %v\n want %v", s, g, ok, w, got, want)
		}
	}
}

// fuzzLabels are the comm stage labels the fuzzer draws from: known schemes,
// unknown labels sharing a first byte, and an empty scheme.
var fuzzLabels = []string{
	"allreduce-ring", "allreduce-ina-hetero", "allreduce-ina-sync",
	"allreduce-foo", "allreduce-fob", "allreduce-", "zeta",
}

// fuzzIntervals decodes a window and its comm, pipe and fault intervals. The
// window is [base, base+16*scale]; each 3-byte record (kind, a, b) adds one
// interval whose endpoints come from point. Bytes below 32 or above 160 land
// outside the window, and bytes from 224 up step whole ulps around the
// window's midpoint, where s + (e-s)/2 rounds onto e.
func fuzzIntervals(base, scale float64, data []byte) (w window, comm, pipe, faults []interval) {
	point := func(b byte) float64 {
		if b >= 224 {
			x := base + 8*scale
			for k := int(b) - 240; k < 0; k++ {
				x = math.Nextafter(x, math.Inf(-1))
			}
			for k := int(b) - 240; k > 0; k-- {
				x = math.Nextafter(x, math.Inf(1))
			}
			return x
		}
		return base + scale*(float64(b)-32)/8
	}
	w = window{start: point(32), end: point(160), seen: true}
	for i := 0; i+2 < len(data); i += 3 {
		kind, a, b := data[i], data[i+1], data[i+2]
		iv := interval{start: point(a), end: point(b)}
		switch kind % 3 {
		case 0:
			iv.stage = fuzzLabels[int(kind/3)%len(fuzzLabels)]
			comm = append(comm, iv)
		case 1:
			pipe = append(pipe, iv)
		case 2:
			iv.stage = StageFaultStall
			faults = append(faults, iv)
		}
	}
	return w, comm, pipe, faults
}

// logged stores comm and pipe in a span log the way the analyzer does,
// interleaved and behind an entry no window references, and returns their
// log indices.
func logged(comm, pipe []interval) (log []interval, ci, pi []uint32) {
	log = []interval{{start: math.Inf(-1), end: math.Inf(1), stage: "unreferenced"}}
	for i := 0; i < len(comm) || i < len(pipe); i++ {
		if i < len(comm) {
			ci = append(ci, uint32(len(log)))
			log = append(log, comm[i])
		}
		if i < len(pipe) {
			pi = append(pi, uint32(len(log)))
			log = append(log, pipe[i])
		}
	}
	return log, ci, pi
}

// decodeSeed is a decode-shaped window for fuzzIntervals: 64 ordered,
// pairwise disjoint all-reduces under four labels, every third one up
// against the next.
func decodeSeed() []byte {
	var data []byte
	for i := 0; i < 64; i++ {
		end := 33 + 2*i
		if i%3 == 2 {
			end++
		}
		data = append(data, byte(3*(i%4)), byte(32+2*i), byte(end))
	}
	return data
}

// partitionSeeds seed FuzzPartition; linear marks the ones that must take
// the linear pass.
var partitionSeeds = []struct {
	name        string
	base, scale float64
	data        []byte
	linear      bool
}{
	// Random mixed windows: comm, pipe and fault intervals.
	{"mixed", 0.0, 1.0, []byte{0, 40, 80, 1, 60, 100, 2, 20, 200, 3, 50, 70, 4, 90, 150, 5, 30, 140}, false},
	{"mixed-far", 1e6, 12.5, []byte{6, 33, 90, 9, 80, 120, 1, 100, 159, 2, 34, 36, 12, 70, 71, 15, 35, 158}, false},
	// Adjacent-float boundaries around the midpoint.
	{"ulps", 3.0, 0.1, []byte{0, 238, 241, 3, 240, 242, 1, 239, 240, 2, 241, 243, 9, 224, 255}, false},
	{"ulps-far", 1e9, 1e-3, []byte{0, 239, 240, 3, 240, 241, 6, 241, 242, 1, 238, 243}, false},
	// Zero-length spans and spans outside the window: nothing is left, so
	// the linear pass charges the whole window to compute.
	{"degenerate", 0.0, 1.0, []byte{0, 50, 50, 1, 0, 20, 2, 170, 200, 3, 200, 10, 0, 31, 32}, true},
	// Spans covering the whole window.
	{"covering", -5.0, 2.0, []byte{0, 0, 255, 1, 32, 160, 2, 10, 200, 3, 20, 180}, false},
	// Duplicate endpoints.
	{"duplicates", 0.0, 1.0, []byte{0, 40, 80, 3, 40, 80, 9, 40, 80, 1, 40, 80, 2, 80, 120, 12, 80, 120}, false},
	// Unknown labels with a shared first byte, overlapping.
	{"labels", 0.0, 1.0, []byte{9, 40, 100, 12, 60, 120, 15, 80, 140}, false},
	// NaN, infinite and overflowing boundaries, where the midpoints stop
	// ascending.
	{"nan", math.NaN(), 1.0, []byte{0, 40, 80, 1, 60, 100}, false},
	{"inf", 0.0, math.Inf(1), []byte{0, 40, 80, 1, 20, 200, 2, 32, 33}, false},
	{"overflow", -1e308, 1e307, []byte{0, 40, 150, 3, 100, 160, 1, 32, 96, 2, 96, 160}, false},
	// The linear pass: a decode window of 64 ordered, disjoint all-reduces.
	{"decode", 0.0, 1.0, decodeSeed(), true},
	// One-ulp gaps before one-ulp spans, at both parities, so some gap's
	// midpoint rounds up onto the next span's start.
	{"gap-rounds-up", 3.0, 0.1, []byte{0, 40, 60, 3, 224, 225, 6, 226, 227, 9, 228, 229, 0, 229, 230, 3, 231, 232, 6, 120, 150}, true},
	// One-ulp spans, adjacent and alone, at both parities, so some span's
	// midpoint rounds onto its end where the next span starts, and some
	// onto an end where none does.
	{"span-rounds-onto-end", 3.0, 0.1, []byte{0, 236, 237, 3, 237, 238, 6, 238, 239, 9, 241, 242, 0, 244, 245}, true},
}

// FuzzPartition: the partition equals the O(n^2) reference bit for bit on
// every stage, for any window and intervals, on the linear pass and on the
// sweep alike.
func FuzzPartition(f *testing.F) {
	for _, sd := range partitionSeeds {
		f.Add(sd.base, sd.scale, sd.data)
	}
	f.Fuzz(func(t *testing.T, base, scale float64, data []byte) {
		w, comm, pipe, faults := fuzzIntervals(base, scale, data)
		log, ci, pi := logged(comm, pipe)
		for _, compute := range []string{StagePrefillCompute, StageDecodeCompute} {
			want := make(map[string]float64)
			partitionRef(want, w, compute, comm, pipe, faults)
			got := make(map[string]float64)
			var sw sweep
			sw.partition(got, w, compute, log, ci, pi, faults)
			samePartition(t, got, want)
			// Reused scratch gives the same answer.
			again := make(map[string]float64)
			sw.partition(again, w, compute, log, ci, pi, faults)
			samePartition(t, again, want)
		}
	})
}

// TestPartitionSeedsTakeBothPaths: the linear seeds take the linear pass and
// hit the midpoint roundings they are named for, and the other seeds fall
// back to the sweep, so FuzzPartition starts from both paths.
func TestPartitionSeedsTakeBothPaths(t *testing.T) {
	mid := func(s, e float64) float64 { return s + (e-s)/2 }
	for _, sd := range partitionSeeds {
		w, comm, pipe, faults := fuzzIntervals(sd.base, sd.scale, sd.data)
		log, ci, pi := logged(comm, pipe)
		var sw sweep
		if got := sw.partition(make(map[string]float64), w, StageDecodeCompute, log, ci, pi, faults); got != sd.linear {
			t.Errorf("seed %s: linear pass = %v, want %v", sd.name, got, sd.linear)
		}
		var gapUp, ontoNext, ontoCompute bool
		for i, iv := range comm {
			if i+1 < len(comm) {
				next := comm[i+1].start
				gapUp = gapUp || iv.end < next && mid(iv.end, next) == next
				ontoNext = ontoNext || mid(iv.start, iv.end) == iv.end && next == iv.end
			}
			ontoCompute = ontoCompute || mid(iv.start, iv.end) == iv.end && (i+1 == len(comm) || comm[i+1].start != iv.end)
		}
		switch sd.name {
		case "decode":
			if len(comm) < 64 {
				t.Errorf("decode seed has %d spans, want >= 64", len(comm))
			}
		case "gap-rounds-up":
			if !gapUp {
				t.Errorf("no gap midpoint of seed %s rounds onto the next span's start", sd.name)
			}
		case "span-rounds-onto-end":
			if !ontoNext || !ontoCompute {
				t.Errorf("seed %s: a span midpoint on its end with a span starting there %v, with none %v; want both",
					sd.name, ontoNext, ontoCompute)
			}
		}
	}
}

// TestUnknownStageTieIsOrderFree: two unknown labels sharing a first byte
// overlap; the overlap goes to the lower name whichever span is fed first.
func TestUnknownStageTieIsOrderFree(t *testing.T) {
	run := func(schemes ...string) Breakdown {
		clock := 0.0
		tr := telemetry.NewTracer(func() float64 { return clock })
		a := New()
		tr.Tap(a.Feed)
		tr.BeginProcess("planned")
		clock = 1.0
		tr.AsyncBegin("collective", "allreduce", 1, telemetry.Args{telemetry.Ints("reqs", []int{0}), telemetry.Str("scheme", schemes[0])})
		clock = 1.5
		tr.AsyncBegin("collective", "allreduce", 2, telemetry.Args{telemetry.Ints("reqs", []int{0}), telemetry.Str("scheme", schemes[1])})
		clock = 2.0
		tr.AsyncEnd("collective", "allreduce", "0x1")
		clock = 2.5
		tr.AsyncEnd("collective", "allreduce", "0x2")
		tr.Complete(1, "request", "request", 0, 4, telemetry.Args{telemetry.Int("id", 0), telemetry.Int("output", 1), telemetry.Str("trace_id", "p1-r0")})
		req := telemetry.Args{telemetry.Int("req", 0)}
		tr.Complete(1, "request", "queue", 0, 0.5, req)
		tr.Complete(1, "request", "prefill", 0.5, 3, req)
		tr.Complete(1, "request", "kv-transfer", 3, 4, req)
		if len(a.Finalized()) != 1 {
			t.Fatalf("finalized %d requests, want 1", len(a.Finalized()))
		}
		return a.Finalized()[0]
	}
	fooFirst := run("foo", "fob")
	fobFirst := run("fob", "foo")
	// The first-fed span covers [1,2) and the second [1.5,2.5); their overlap
	// [1.5,2) goes to allreduce-fob in both runs.
	want := map[string]float64{
		StageQueue:          0.5,
		StagePrefillCompute: 1.0,
		"allreduce-fob":     1.0,
		"allreduce-foo":     0.5,
	}
	for _, b := range []Breakdown{fooFirst, fobFirst} {
		if len(b.TTFTStages) != len(want) {
			t.Fatalf("ttft stages = %v, want %v", b.TTFTStages, want)
		}
		for s, w := range want {
			if got := b.TTFTStages[s]; math.Abs(got-w) > 1e-9 {
				t.Errorf("ttft[%s] = %v, want %v (all: %v)", s, got, w, b.TTFTStages)
			}
		}
	}
	samePartition(t, fooFirst.TTFTStages, fobFirst.TTFTStages)
}

// benchWindow builds a 1-second request window (in usec) crossed by n
// all-reduce intervals under the four known schemes, n/10 pipeline transfers
// and two fault stalls, from a fixed-seed generator. Comm and pipeline
// intervals follow one another like a batch's collectives do, each starting
// a random gap after the previous one's midpoint, so neighbours overlap now
// and then; they come in the order the analyzer appends them (by end).
func benchWindow(n int) (w window, comm, pipe, faults []interval) {
	rng := rand.New(rand.NewSource(int64(n)))
	schemes := []string{"allreduce-ring", "allreduce-ina-sync", "allreduce-ina-async", "allreduce-ina-hetero"}
	w = window{start: 0, end: 1e6, seen: true}
	chain := func(count int, stage string) []interval {
		var ivs []interval
		mean := 1e6 / float64(count+1)
		t := 0.0
		for i := 0; i < count; i++ {
			s := t + rng.ExpFloat64()*mean/2
			e := s + rng.ExpFloat64()*mean
			t = s + (e-s)/2
			ivs = append(ivs, interval{start: s, end: e, stage: stage})
		}
		slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.end, b.end) })
		return ivs
	}
	comm = chain(n, "")
	for i := range comm {
		comm[i].stage = schemes[i%len(schemes)]
	}
	pipe = chain(n/10, "")
	for i := 0; i < 2; i++ {
		s := rng.Float64() * 1e6
		faults = append(faults, interval{start: s, end: s + 5e4, stage: StageFaultStall})
	}
	return w, comm, pipe, faults
}

func TestBenchWindowMatchesReference(t *testing.T) {
	for _, n := range []int{10, 100, 1000} {
		w, comm, pipe, faults := benchWindow(n)
		want := make(map[string]float64)
		partitionRef(want, w, StagePrefillCompute, comm, pipe, faults)
		got := make(map[string]float64)
		var sw sweep
		log, ci, pi := logged(comm, pipe)
		sw.partition(got, w, StagePrefillCompute, log, ci, pi, faults)
		samePartition(t, got, want)
	}
}

// TestPartitionSteadyStateAllocs: with warm scratch and an output map that
// already holds the stages, the sweep allocates nothing.
func TestPartitionSteadyStateAllocs(t *testing.T) {
	w, comm, pipe, faults := benchWindow(100)
	log, ci, pi := logged(comm, pipe)
	var sw sweep
	out := make(map[string]float64)
	sw.partition(out, w, StagePrefillCompute, log, ci, pi, faults)
	if allocs := testing.AllocsPerRun(50, func() {
		clear(out)
		sw.partition(out, w, StagePrefillCompute, log, ci, pi, faults)
	}); allocs != 0 {
		t.Errorf("steady-state partition allocs = %v, want 0", allocs)
	}
}

func BenchmarkPartition(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		w, comm, pipe, faults := benchWindow(n)
		log, ci, pi := logged(comm, pipe)
		b.Run(fmt.Sprintf("sweep/comm=%d", n), func(b *testing.B) {
			var sw sweep
			out := make(map[string]float64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(out)
				sw.partition(out, w, StagePrefillCompute, log, ci, pi, faults)
			}
		})
		// The same window's all-reduces, laid end to end: a decode window.
		var decode []interval
		for i := range comm {
			s := w.end * float64(i) / float64(n)
			decode = append(decode, interval{start: s, end: s + w.end/float64(2*n), stage: comm[i].stage})
		}
		dlog, dci, _ := logged(decode, nil)
		b.Run(fmt.Sprintf("linear/comm=%d", n), func(b *testing.B) {
			var sw sweep
			out := make(map[string]float64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(out)
				sw.partition(out, w, StageDecodeCompute, dlog, dci, nil, nil)
			}
		})
		b.Run(fmt.Sprintf("ref/comm=%d", n), func(b *testing.B) {
			out := make(map[string]float64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(out)
				partitionRef(out, w, StagePrefillCompute, comm, pipe, faults)
			}
		})
	}
}

// TestStageTotalsAreOrderedSums: every finalized TTFT and E2E is bit-equal
// to the sum of its stages taken in sortStages order, so the totals cannot
// depend on map iteration order. Each request replays synthetic's lifecycle
// with its times stretched by a random factor, so stage durations are not
// dyadic and a different summation order would change their low bits.
func TestStageTotalsAreOrderedSums(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	clock := 0.0
	tr := telemetry.NewTracer(func() float64 { return clock })
	a := New()
	tr.Tap(a.Feed)
	tr.BeginProcess("planned")
	for req := 0; req < 200; req++ {
		base, k := float64(req)*100, 1+rng.Float64()
		at := func(x float64) float64 { return base + k*x }
		id := int64(req * 3)
		clock = at(1.5)
		span := tr.AsyncBegin("collective", "allreduce", id+1,
			telemetry.Args{telemetry.Ints("reqs", []int{req}), telemetry.Str("scheme", "ring")})
		clock = at(2)
		tr.AsyncEnd("collective", "allreduce", span)
		span = tr.AsyncBegin("pipeline", "pipeline_stage", id+2,
			telemetry.Args{telemetry.Ints("reqs", []int{req}), telemetry.Int("stage", 2)})
		clock = at(2.5)
		tr.AsyncEnd("pipeline", "pipeline_stage", span)
		clock = at(5)
		span = tr.AsyncBegin("collective", "allreduce", id+3,
			telemetry.Args{telemetry.Ints("reqs", []int{req}), telemetry.Str("scheme", "ina-hetero")})
		clock = at(6)
		tr.AsyncEnd("collective", "allreduce", span)
		tr.InstantAt(at(6.5), telemetry.ControlTID, "fault", "link-degrade",
			telemetry.Args{telemetry.Num("duration", 0.5*k)})
		tr.Complete(1, "request", "request", at(0), at(8), telemetry.Args{telemetry.Int("id", req), telemetry.Int("input", 100), telemetry.Int("output", 5), telemetry.Str("trace_id", fmt.Sprintf("p1-r%d", req))})
		ids := telemetry.Args{telemetry.Int("req", req)}
		tr.Complete(1, "request", "queue", at(0), at(1), ids)
		tr.Complete(1, "request", "prefill", at(1), at(3), ids)
		tr.Complete(1, "request", "kv-transfer", at(3), at(4), ids)
		tr.Complete(1, "request", "decode", at(4), at(8), telemetry.Args{telemetry.Int("req", req), telemetry.Int("tokens", 4)})
	}
	done := a.Finalized()
	if len(done) != 200 {
		t.Fatalf("finalized %d requests, want 200", len(done))
	}
	ordered := func(m map[string]float64) float64 {
		var sum float64
		for _, s := range sortStages(m) {
			sum += m[s]
		}
		return sum
	}
	for _, b := range done {
		if got, want := b.TTFT, ordered(b.TTFTStages); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("req %d: TTFT %v is not the ordered stage sum %v", b.Req, got, want)
		}
		if got, want := b.E2E, ordered(b.E2EStages); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("req %d: E2E %v is not the ordered stage sum %v", b.Req, got, want)
		}
	}
}

// recycleStream is a span stream of four requests under pid, in emit order
// (times in usec): r0 (three tokens) and r1 (one token, so it finalizes on
// its kv-transfer) share a prefill all-reduce and a pipeline transfer with
// r3, while r2 has a prefill all-reduce and transfer of its own; r0 and r2
// share two decode all-reduces, one crossing a fault. r3 is truncated after
// its prefill span, so it never finalizes. Fed twice to one analyzer, the
// second r0 takes the first r2's state and the first span takes the last
// span's reqs buffer, and r0's windows overlap the intervals and requests
// those would carry over if they were not reset.
func recycleStream(pid int) []telemetry.Event {
	dur := func(d float64) *float64 { return &d }
	var evs []telemetry.Event
	span := func(ph, name string, ts float64, id string, args telemetry.Args) {
		cat := "collective"
		if name == "pipeline_stage" {
			cat = "pipeline"
		}
		evs = append(evs, telemetry.Event{Name: name, Cat: cat, Ph: ph, Ts: ts, Pid: pid, ID: id, Args: args})
	}
	allreduce := func(id string, start, end float64, scheme string, reqs ...int) {
		span("b", "allreduce", start, id, telemetry.Args{telemetry.Ints("reqs", reqs), telemetry.Str("scheme", scheme)})
		span("e", "allreduce", end, id, nil)
	}
	request := func(req, output int, windows ...float64) {
		evs = append(evs, telemetry.Event{Name: "request", Cat: "request", Ph: "X", Ts: windows[0],
			Dur: dur(windows[len(windows)-1] - windows[0]), Pid: pid, Tid: req + 1,
			Args: telemetry.Args{telemetry.Int("id", req), telemetry.Int("output", output),
				telemetry.Str("trace_id", fmt.Sprintf("p%d-r%d", pid, req))}})
		for i, name := range []string{"queue", "prefill", "kv-transfer", "decode"}[:len(windows)-1] {
			evs = append(evs, telemetry.Event{Name: name, Cat: "request", Ph: "X", Ts: windows[i],
				Dur: dur(windows[i+1] - windows[i]), Pid: pid, Tid: req + 1,
				Args: telemetry.Args{telemetry.Int("req", req)}})
		}
	}
	evs = append(evs, telemetry.Event{Name: "process_name", Ph: "M", Pid: pid,
		Args: telemetry.Args{telemetry.Str("name", "planned")}})
	span("b", "allreduce", 150, "0x1", telemetry.Args{telemetry.Ints("reqs", []int{0, 1, 3}), telemetry.Str("scheme", "ring")})
	span("b", "allreduce", 150, "0x5", telemetry.Args{telemetry.Ints("reqs", []int{2}), telemetry.Str("scheme", "ina-sync")})
	span("e", "allreduce", 200, "0x1", nil)
	span("b", "pipeline_stage", 200, "0x2", telemetry.Args{telemetry.Ints("reqs", []int{0, 1, 3})})
	span("e", "pipeline_stage", 250, "0x2", nil)
	span("e", "allreduce", 250, "0x5", nil)
	span("b", "pipeline_stage", 260, "0x6", telemetry.Args{telemetry.Ints("reqs", []int{2})})
	span("e", "pipeline_stage", 300, "0x6", nil)
	request(1, 1, 0, 100, 300, 400)
	evs = append(evs, telemetry.Event{Name: "link-degrade", Cat: "fault", Ph: "i", Ts: 500, Pid: pid,
		Scope: "t", Args: telemetry.Args{telemetry.Num("duration", 1e-4)}})
	allreduce("0x3", 450, 550, "ina-hetero", 0, 2)
	allreduce("0x4", 600, 650, "ring", 0, 2)
	request(0, 3, 0, 100, 300, 400, 800)
	request(2, 2, 0, 120, 340, 440, 900)
	request(3, 4, 0, 100, 300)
	return evs
}

// feedScribbled feeds evs to a and then overwrites each event's "reqs" list,
// as an emitter reusing its argument buffer would.
func feedScribbled(a *Analyzer, evs []telemetry.Event) {
	for _, ev := range evs {
		a.Feed(ev)
		reqs := ev.Args.Ints("reqs")
		for i := range reqs {
			reqs[i] = -1
		}
	}
}

// TestRecycledStateDoesNotLeak: an analyzer that has finalized requests
// hands their recycled states and span buffers to the next ones, so one
// analyzer fed the same stream under two pids must finalize bit for bit
// what two fresh analyzers finalize from one copy each.
func TestRecycledStateDoesNotLeak(t *testing.T) {
	reused := New()
	feedScribbled(reused, recycleStream(1))
	feedScribbled(reused, recycleStream(2))
	var want []Breakdown
	for pid := 1; pid <= 2; pid++ {
		fresh := New()
		feedScribbled(fresh, recycleStream(pid))
		want = append(want, fresh.Finalized()...)
	}
	got := reused.Finalized()
	if len(want) != 6 || len(got) != len(want) {
		t.Fatalf("finalized %d requests, fresh analyzers %d; want 6 (r3 never finalizes)", len(got), len(want))
	}
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	sameStages := func(g, w map[string]float64) bool {
		if len(g) != len(w) {
			return false
		}
		for s, v := range w {
			if gv, ok := g[s]; !ok || bits(gv) != bits(v) {
				return false
			}
		}
		return true
	}
	for i, w := range want {
		g := got[i]
		if g.PID != w.PID || g.Req != w.Req || g.TraceID != w.TraceID ||
			bits(g.Arrival) != bits(w.Arrival) || bits(g.TTFT) != bits(w.TTFT) || bits(g.E2E) != bits(w.E2E) ||
			!sameStages(g.TTFTStages, w.TTFTStages) || !sameStages(g.E2EStages, w.E2EStages) {
			t.Errorf("breakdown %d: recycled %+v, fresh %+v", i, g, w)
		}
	}
}

// decodeStream is groups batches of k requests decoding side by side for n
// iterations: in each iteration every group's all-reduce, tagged with its
// whole batch, begins and ends before the next group's, so with more than
// one group a request's spans alternate with the other groups'. Every
// request's lifecycle spans follow at the end (times in usec).
func decodeStream(groups, k, n int) []telemetry.Event {
	batches := make([][]int, groups)
	for g := range batches {
		for i := 0; i < k; i++ {
			batches[g] = append(batches[g], g*k+i)
		}
	}
	evs := []telemetry.Event{{Name: "process_name", Ph: "M", Pid: 1,
		Args: telemetry.Args{telemetry.Str("name", "planned")}}}
	const kvEnd, iter = 300.0, 100.0
	slot := iter / 2 / float64(groups)
	for it := 0; it < n; it++ {
		for g, batch := range batches {
			id, start := fmt.Sprintf("0x%x", it*groups+g+1), kvEnd+float64(it)*iter+iter/2+float64(g)*slot
			evs = append(evs,
				telemetry.Event{Name: "allreduce", Cat: "collective", Ph: "b", Ts: start, Pid: 1, ID: id,
					Args: telemetry.Args{telemetry.Ints("reqs", batch), telemetry.Str("scheme", "ring")}},
				telemetry.Event{Name: "allreduce", Cat: "collective", Ph: "e", Ts: start + slot, Pid: 1, ID: id})
		}
	}
	end := kvEnd + float64(n)*iter
	for req := 0; req < groups*k; req++ {
		windows := []float64{0, 100, 200, kvEnd, end}
		evs = append(evs, telemetry.Event{Name: "request", Cat: "request", Ph: "X", Ts: 0, Dur: &windows[4],
			Pid: 1, Tid: req + 1, Args: telemetry.Args{telemetry.Int("id", req), telemetry.Int("output", n+1),
				telemetry.Str("trace_id", fmt.Sprintf("p1-r%d", req))}})
		for i, name := range []string{"queue", "prefill", "kv-transfer", "decode"} {
			d := windows[i+1] - windows[i]
			evs = append(evs, telemetry.Event{Name: name, Cat: "request", Ph: "X", Ts: windows[i], Dur: &d,
				Pid: 1, Tid: req + 1, Args: telemetry.Args{telemetry.Int("req", req)}})
		}
	}
	return evs
}

// replay feeds evs to a and drops the finalized breakdowns, so a replay
// loop measures the analyzer's steady state, not a growing done list.
func replay(a *Analyzer, evs []telemetry.Event) {
	for _, ev := range evs {
		a.Feed(ev)
	}
	a.done = a.done[:0]
}

// mapSink keeps the reference maps of TestWarmFinalizeAllocatesOnlyItsMaps
// on the heap, where the analyzer's maps live.
var mapSink [2]map[string]float64

// TestWarmFinalizeAllocatesOnlyItsMaps: once its free lists and scratch are
// warm, a replay of a decode stream allocates exactly what building each
// request's two Breakdown maps allocates.
func TestWarmFinalizeAllocatesOnlyItsMaps(t *testing.T) {
	const k = 8
	evs := decodeStream(1, k, 64)
	a := New()
	a.OnFinalize(NewShareTracker().Observe)
	for i := 0; i < 3; i++ {
		replay(a, evs)
	}
	for _, ev := range evs {
		a.Feed(ev)
	}
	done := slices.Clone(a.Finalized())
	a.done = a.done[:0]
	maps := testing.AllocsPerRun(20, func() {
		for _, b := range done {
			mapSink[0], mapSink[1] = make(map[string]float64), make(map[string]float64)
			for s, v := range b.TTFTStages {
				mapSink[0][s] = v
			}
			for s, v := range b.E2EStages {
				mapSink[1][s] = v
			}
		}
	})
	if got := testing.AllocsPerRun(20, func() { replay(a, evs) }); got != maps {
		t.Errorf("warm replay of %d requests allocates %v, want %v (their Breakdown maps)", k, got, maps)
	}
}

// BenchmarkAnalyzerFeed replays a decode stream of G groups of K requests
// batched for N iterations through one warm analyzer: per replay, G*N
// all-reduce spans each tagged with its group's K requests, then G*K
// finalizes. With G > 1 the groups' spans alternate in the stream.
func BenchmarkAnalyzerFeed(b *testing.B) {
	for _, c := range []struct{ g, k, n int }{{1, 8, 64}, {1, 32, 256}, {4, 8, 256}} {
		evs := decodeStream(c.g, c.k, c.n)
		name := fmt.Sprintf("K=%d/N=%d", c.k, c.n)
		if c.g > 1 {
			name = fmt.Sprintf("G=%d/", c.g) + name
		}
		b.Run(name, func(b *testing.B) {
			a := New()
			replay(a, evs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replay(a, evs)
			}
		})
	}
}

// TestWarmSpanEndAllocs: once an analyzer has seen a stream, closing a span
// of a K-request batch again allocates nothing — the span goes into the log
// once and each request gets an index — and neither does opening one.
func TestWarmSpanEndAllocs(t *testing.T) {
	const groups, k, n = 2, 8, 64
	evs := decodeStream(groups, k, n)
	a := New()
	for i := 0; i < 3; i++ {
		replay(a, evs)
	}
	spans := evs[1 : 1+2*groups*n]
	for _, ev := range spans {
		if ev.Ph != "b" && ev.Ph != "e" {
			t.Fatalf("event %+v is not a span begin or end", ev)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ev := range spans {
		a.Feed(ev)
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Errorf("%d warm span begins and ends of %d-request batches allocate %d times, want 0", len(spans), k, got)
	}
}

// spanStream builds a span stream under one pid, in emit order, on a clock
// in usec that every span advances.
type spanStream struct {
	pid   int
	clock float64
	seq   int
	evs   []telemetry.Event
}

// allreduce appends an all-reduce of length d tagged with reqs.
func (s *spanStream) allreduce(d float64, reqs ...int) {
	s.span("allreduce", s.clock, s.clock+d, reqs)
	s.clock += d
}

// prefilled appends a pipeline transfer tagged with req inside the prefill
// window request(req, start) gives it, with start the clock.
func (s *spanStream) prefilled(req int) {
	s.span("pipeline_stage", s.clock-2, s.clock-1.5, []int{req})
}

func (s *spanStream) span(name string, start, end float64, reqs []int) {
	s.seq++
	id, cat := fmt.Sprintf("0x%x", s.seq), "collective"
	args := telemetry.Args{telemetry.Ints("reqs", reqs), telemetry.Str("scheme", "ring")}
	if name == "pipeline_stage" {
		cat, args = "pipeline", args[:1]
	}
	s.evs = append(s.evs,
		telemetry.Event{Name: name, Cat: cat, Ph: "b", Ts: start, Pid: s.pid, ID: id, Args: args},
		telemetry.Event{Name: name, Cat: cat, Ph: "e", Ts: end, Pid: s.pid, ID: id})
}

// request appends a decoding request's lifecycle spans: queue [start-4,
// start-3), prefill up to start-1, kv-transfer up to start, then decode up
// to the clock.
func (s *spanStream) request(req int, start float64) {
	windows := []float64{start - 4, start - 3, start - 1, start, s.clock}
	dur := func(from, to float64) *float64 { d := to - from; return &d }
	s.evs = append(s.evs, telemetry.Event{Name: "request", Cat: "request", Ph: "X", Ts: windows[0],
		Dur: dur(windows[0], s.clock), Pid: s.pid, Tid: 1,
		Args: telemetry.Args{telemetry.Int("id", req), telemetry.Int("output", 2),
			telemetry.Str("trace_id", fmt.Sprintf("p%d-r%d", s.pid, req))}})
	for i, name := range []string{"queue", "prefill", "kv-transfer", "decode"} {
		s.evs = append(s.evs, telemetry.Event{Name: name, Cat: "request", Ph: "X", Ts: windows[i], Dur: dur(windows[i], windows[i+1]),
			Pid: s.pid, Tid: 1, Args: telemetry.Args{telemetry.Int("req", req)}})
	}
}

// feed hands the events appended since the last feed to every analyzer.
func (s *spanStream) feed(analyzers ...interface{ Feed(telemetry.Event) }) {
	for _, ev := range s.evs {
		for _, a := range analyzers {
			a.Feed(ev)
		}
	}
	s.evs = s.evs[:0]
}

// TestOutOfRangeIDsMatchReference: request IDs the table's window cannot
// hold — negative, far above it, below its base once it has moved on —
// live in the far map, a far request the window grows to reach moves into
// it, and every request finalizes exactly as in the reference analyzer.
func TestOutOfRangeIDsMatchReference(t *testing.T) {
	a, ref := New(), newRefAnalyzer()
	s := &spanStream{pid: 3, clock: 10}
	far := []int{-7, -1, 500, 1 << 40, math.MaxInt}
	s.allreduce(10, 0, 1, 2)
	s.allreduce(10, append([]int{1, -7, 2, -1}, append(far[2:], 2)...)...)
	s.feed(a, ref)
	tab := a.tables[3]
	for _, id := range far {
		if _, ok := tab.far[id]; !ok {
			t.Errorf("request %d is not in the far map (far %v, window base %d, %d slots)", id, tab.far, tab.base, tab.hi-tab.lo)
		}
	}
	// IDs 3..499 widen the window one at a time until it reaches 500.
	for id := 3; id < 500; id++ {
		s.allreduce(1, id)
	}
	s.allreduce(5, 499, 500)
	s.feed(a, ref)
	if _, ok := tab.far[500]; ok || tab.at(500) == nil || *tab.at(500) == nil {
		t.Errorf("request 500 did not move into the window (far %v, base %d, %d slots)", tab.far, tab.base, tab.hi-tab.lo)
	}
	for _, id := range []int{2, 0, -7, 500, 1} {
		s.request(id, 10)
	}
	for id := 3; id < 500; id++ {
		s.request(id, 10)
	}
	for _, id := range []int{-1, 1 << 40, math.MaxInt} {
		s.request(id, 10)
	}
	// Finalized IDs come back: 1 reopens the empty window, 0 lands below its
	// base, -1 is negative again; 2 is tagged after it finalized and never
	// finalizes again.
	start := s.clock
	s.allreduce(3, 1, -1, 0, 2)
	s.allreduce(4, 0, 1)
	for _, id := range []int{1, 0, -1} {
		s.request(id, start)
	}
	s.feed(a, ref)
	if len(ref.Finalized()) != 508 {
		t.Fatalf("reference finalized %d requests, want 508", len(ref.Finalized()))
	}
	if d := diffBreakdowns(a.Finalized(), ref.Finalized()); d != "" {
		t.Fatal(d)
	}
}

// TestLongRunStaysBounded: 100k requests, each with a pipeline transfer in
// its prefill, decode through one analyzer in two interleaved batches of 8,
// each for 4 to 20 iterations, and every 1000th never finalizes. The
// request table and the span log stay within bounds set by the requests in
// flight and the spans they reference, not by the run's length, and every
// request finalizes as in the reference analyzer.
func TestLongRunStaysBounded(t *testing.T) {
	const total, groups, batch = 100_000, 2, 8
	type member struct {
		id, left int
		start    float64
	}
	a, ref := New(), newRefAnalyzer()
	s := &spanStream{pid: 1, clock: 10}
	refs := make(map[int]int) // spans each request in flight is tagged with
	next, leaked, maxLive, maxRefs, finalized := 0, 0, 0, 0, 0
	join := func() member {
		m := member{id: next, left: 4 + next%17, start: s.clock}
		s.prefilled(next)
		refs[next] = 1
		next++
		return m
	}
	slots := make([][]member, groups)
	for g := range slots {
		for i := 0; i < batch; i++ {
			slots[g] = append(slots[g], join())
		}
	}
	reqs := make([]int, batch)
	for len(refs) > leaked {
		for g := range slots {
			reqs = reqs[:0]
			for i := range slots[g] {
				if m := &slots[g][i]; m.left > 0 {
					reqs = append(reqs, m.id)
					m.left--
					refs[m.id]++
				}
			}
			if len(reqs) > 0 {
				s.allreduce(1, reqs...)
			}
		}
		for g := range slots {
			for i := range slots[g] {
				m := &slots[g][i]
				if m.left > 0 || m.id < 0 {
					continue
				}
				if m.id%1000 == 999 {
					leaked++
				} else {
					s.request(m.id, m.start)
					delete(refs, m.id)
					finalized++
				}
				m.id = -1
				if next < total {
					*m = join()
				}
			}
		}
		live, sum := len(refs), 0
		for _, n := range refs {
			sum += n
		}
		maxLive, maxRefs = max(maxLive, live), max(maxRefs, sum)
		s.feed(a, ref)
		if d := diffBreakdowns(a.Finalized(), ref.Finalized()); d != "" {
			t.Fatal(d)
		}
		a.done, ref.done = a.done[:0], ref.done[:0]
		tab := a.tables[1]
		if n := len(tab.slots); n > 8*maxLive+2*tableSlack+16 {
			t.Fatalf("request table has %d slots with at most %d requests in flight", n, maxLive)
		}
		if n := cap(a.log); n > 4*max(maxRefs, minLogLimit) {
			t.Fatalf("span log holds %d spans with at most %d referenced", n, maxRefs)
		}
	}
	if finalized != total-total/1000 {
		t.Fatalf("finalized %d requests, want %d", finalized, total-total/1000)
	}
	if tab := a.tables[1]; len(tab.far) == 0 {
		t.Errorf("no leaked request left the window for the far map (window base %d, %d slots)", tab.base, tab.hi-tab.lo)
	}
	t.Logf("%d spans; max %d requests in flight referencing %d spans; table %d slots, log capacity %d",
		s.seq, maxLive, maxRefs, len(a.tables[1].slots), cap(a.log))
}
