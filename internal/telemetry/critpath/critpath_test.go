package critpath

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
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
	tr.AsyncEnd("collective", "allreduce", 1)
	tr.AsyncBegin("pipeline", "pipeline_stage", 2,
		telemetry.Args{telemetry.Ints("reqs", []int{0}), telemetry.Int("stage", 2)})
	clock = 2.5
	tr.AsyncEnd("pipeline", "pipeline_stage", 2)
	clock = 5.0
	tr.AsyncBegin("collective", "allreduce", 3,
		telemetry.Args{telemetry.Ints("reqs", []int{0}), telemetry.Str("scheme", "ina-hetero")})
	clock = 6.0
	tr.AsyncEnd("collective", "allreduce", 3)
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
	tr.AsyncEnd("collective", "allreduce", 1)
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
	tr.AsyncEnd("collective", "allreduce", 1)
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

	var d bytes.Buffer
	if err := FprintDiff(&d, synthetic(t).Report(10), synthetic(t).Report(10)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d.String(), "delta +0.000000s") {
		t.Errorf("self-diff should be zero:\n%s", d.String())
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
	tr.AsyncEnd("collective", "allreduce", 1)
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

// FuzzFromTrace: FromTrace never panics, and a trace it accepts yields a
// report that renders and diffs without panicking. The seed is a two-request
// serve -out spans.json.
func FuzzFromTrace(f *testing.F) {
	seed, err := os.ReadFile("testdata/spans.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"traceEvents":[{"name":"request","cat":"request","ph":"X","ts":0,"dur":-5,"pid":1,"tid":1,"args":{"id":0,"output":-1}}]}`))
	f.Add([]byte(`{"traceEvents":[{"name":"allreduce","cat":"collective","ph":"e","ts":1e308,"pid":1,"tid":0,"id":"0x1"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := FromTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		r := a.Report(3)
		if err := r.Fprint(io.Discard); err != nil {
			t.Fatalf("render accepted trace: %v", err)
		}
		if err := FprintDiff(io.Discard, r, New().Report(3)); err != nil {
			t.Fatalf("diff accepted trace: %v", err)
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

// FuzzPartition: the sweep-line partition equals the O(n^2) reference bit for
// bit on every stage, for any window and intervals.
func FuzzPartition(f *testing.F) {
	// Random mixed windows: comm, pipe and fault intervals.
	f.Add(0.0, 1.0, []byte{0, 40, 80, 1, 60, 100, 2, 20, 200, 3, 50, 70, 4, 90, 150, 5, 30, 140})
	f.Add(1e6, 12.5, []byte{6, 33, 90, 9, 80, 120, 1, 100, 159, 2, 34, 36, 12, 70, 71, 15, 35, 158})
	// Adjacent-float boundaries around the midpoint.
	f.Add(3.0, 0.1, []byte{0, 238, 241, 3, 240, 242, 1, 239, 240, 2, 241, 243, 9, 224, 255})
	f.Add(1e9, 1e-3, []byte{0, 239, 240, 3, 240, 241, 6, 241, 242, 1, 238, 243})
	// Zero-length spans and spans outside the window.
	f.Add(0.0, 1.0, []byte{0, 50, 50, 1, 0, 20, 2, 170, 200, 3, 200, 10, 0, 31, 32})
	// Spans covering the whole window.
	f.Add(-5.0, 2.0, []byte{0, 0, 255, 1, 32, 160, 2, 10, 200, 3, 20, 180})
	// Duplicate endpoints.
	f.Add(0.0, 1.0, []byte{0, 40, 80, 3, 40, 80, 9, 40, 80, 1, 40, 80, 2, 80, 120, 12, 80, 120})
	// Unknown labels with a shared first byte, overlapping.
	f.Add(0.0, 1.0, []byte{9, 40, 100, 12, 60, 120, 15, 80, 140})
	// NaN, infinite and overflowing boundaries, where the midpoints stop
	// ascending.
	f.Add(math.NaN(), 1.0, []byte{0, 40, 80, 1, 60, 100})
	f.Add(0.0, math.Inf(1), []byte{0, 40, 80, 1, 20, 200, 2, 32, 33})
	f.Add(-1e308, 1e307, []byte{0, 40, 150, 3, 100, 160, 1, 32, 96, 2, 96, 160})
	f.Fuzz(func(t *testing.T, base, scale float64, data []byte) {
		w, comm, pipe, faults := fuzzIntervals(base, scale, data)
		for _, compute := range []string{StagePrefillCompute, StageDecodeCompute} {
			want := make(map[string]float64)
			partitionRef(want, w, compute, comm, pipe, faults)
			got := make(map[string]float64)
			var sw sweep
			sw.partition(got, w, compute, comm, pipe, faults)
			samePartition(t, got, want)
			// Reused scratch gives the same answer.
			again := make(map[string]float64)
			sw.partition(again, w, compute, comm, pipe, faults)
			samePartition(t, again, want)
		}
	})
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
		tr.AsyncEnd("collective", "allreduce", 1)
		clock = 2.5
		tr.AsyncEnd("collective", "allreduce", 2)
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
		sw.partition(got, w, StagePrefillCompute, comm, pipe, faults)
		samePartition(t, got, want)
	}
}

// TestPartitionSteadyStateAllocs: with warm scratch and an output map that
// already holds the stages, the sweep allocates nothing.
func TestPartitionSteadyStateAllocs(t *testing.T) {
	w, comm, pipe, faults := benchWindow(100)
	var sw sweep
	out := make(map[string]float64)
	sw.partition(out, w, StagePrefillCompute, comm, pipe, faults)
	if allocs := testing.AllocsPerRun(50, func() {
		clear(out)
		sw.partition(out, w, StagePrefillCompute, comm, pipe, faults)
	}); allocs != 0 {
		t.Errorf("steady-state partition allocs = %v, want 0", allocs)
	}
}

func BenchmarkPartition(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		w, comm, pipe, faults := benchWindow(n)
		b.Run(fmt.Sprintf("sweep/comm=%d", n), func(b *testing.B) {
			var sw sweep
			out := make(map[string]float64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(out)
				sw.partition(out, w, StagePrefillCompute, comm, pipe, faults)
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
		tr.AsyncBegin("collective", "allreduce", id+1,
			telemetry.Args{telemetry.Ints("reqs", []int{req}), telemetry.Str("scheme", "ring")})
		clock = at(2)
		tr.AsyncEnd("collective", "allreduce", id+1)
		tr.AsyncBegin("pipeline", "pipeline_stage", id+2,
			telemetry.Args{telemetry.Ints("reqs", []int{req}), telemetry.Int("stage", 2)})
		clock = at(2.5)
		tr.AsyncEnd("pipeline", "pipeline_stage", id+2)
		clock = at(5)
		tr.AsyncBegin("collective", "allreduce", id+3,
			telemetry.Args{telemetry.Ints("reqs", []int{req}), telemetry.Str("scheme", "ina-hetero")})
		clock = at(6)
		tr.AsyncEnd("collective", "allreduce", id+3)
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
