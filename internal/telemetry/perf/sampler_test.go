package perf

import (
	"bytes"
	"encoding/json"
	"testing"

	"heroserve/internal/sim"
)

// fakeClock is a deterministic monotonic clock: each reading advances by
// step nanoseconds.
type fakeClock struct {
	t    int64
	step int64
}

func (c *fakeClock) now() int64 {
	c.t += c.step
	return c.t
}

func newTestSampler(every int) (*Sampler, *fakeClock) {
	s := NewSampler(every)
	c := &fakeClock{step: 100}
	s.now = c.now
	return s, c
}

func TestSamplerStride(t *testing.T) {
	s, _ := newTestSampler(4)
	s.Start(0)
	for i := 0; i < 16; i++ {
		tok := s.BeginEvent(float64(i))
		s.EndEvent(tok)
	}
	s.Finish(16)
	if s.events != 16 {
		t.Fatalf("events = %d, want 16", s.events)
	}
	if s.sampledEvents != 4 {
		t.Fatalf("sampledEvents = %d, want 4 (stride 4)", s.sampledEvents)
	}
}

func TestSamplerReport(t *testing.T) {
	s, _ := newTestSampler(2)
	eng := sim.NewEngine()
	s.BindEngine(eng)
	for i := 0; i < 5; i++ {
		eng.Schedule(float64(i+100), func() {})
	}
	s.Start(0)
	for i := 0; i < 10; i++ {
		tok := s.BeginEvent(float64(i))
		// A water-filling observation inside every event; timed only when
		// the event itself is sampled.
		rt := s.ReallocStart()
		s.ReallocDone(rt, 2, 3, 1)
		s.EndEvent(tok)
	}
	s.Finish(10)
	r := s.Report("test-system")

	if r.Schema != Schema {
		t.Fatalf("schema = %q", r.Schema)
	}
	if r.Events != 10 || r.SampledEvents != 5 {
		t.Fatalf("events %d sampled %d, want 10/5", r.Events, r.SampledEvents)
	}
	if r.SimSeconds != 10 {
		t.Fatalf("SimSeconds = %v, want 10", r.SimSeconds)
	}
	if r.WallSeconds <= 0 || r.EventsPerSec <= 0 || r.WallPerSim <= 0 {
		t.Fatalf("wall-derived fields not positive: %+v", r)
	}
	if r.Netsim.Reallocs != 10 || r.Netsim.SampledReallocs != 5 {
		t.Fatalf("reallocs %d sampled %d, want 10/5", r.Netsim.Reallocs, r.Netsim.SampledReallocs)
	}
	if r.Netsim.MeanCompFlows != 3 || r.Netsim.MeanRounds != 1 {
		t.Fatalf("component means wrong: %+v", r.Netsim)
	}
	if r.Netsim.MaxCompFlows != 3 || r.Netsim.MaxCompLinks != 2 {
		t.Fatalf("component maxima wrong: %+v", r.Netsim)
	}
	// 3 flows lands in the ≤4 bucket.
	if r.Netsim.FlowsHistogram[2].Le != 4 || r.Netsim.FlowsHistogram[2].Count != 10 {
		t.Fatalf("flow histogram wrong: %+v", r.Netsim.FlowsHistogram)
	}
	if r.Queue.Final.Live != 5 {
		t.Fatalf("final queue live = %d, want 5", r.Queue.Final.Live)
	}
	if r.Queue.PeakLive != 5 {
		t.Fatalf("peak live = %d, want 5", r.Queue.PeakLive)
	}
	// Both attributed phases were timed, so their sum is positive.
	ph := r.Phases
	sum := ph.ReallocSeconds + ph.SelfSeconds
	if sum <= 0 {
		t.Fatalf("phase sum not positive: %+v", ph)
	}
	if len(r.Progress) == 0 {
		t.Fatal("no progress points recorded")
	}

	// Round-trip through the JSON surface.
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Events != r.Events || back.System != "test-system" {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

func TestReadReportRejectsWrongSchema(t *testing.T) {
	doc, _ := json.Marshal(map[string]any{"schema": "other/9"})
	if _, err := ReadReport(doc); err == nil {
		t.Fatal("expected schema error")
	}
}

func TestProgressDecimation(t *testing.T) {
	s, _ := newTestSampler(1) // sample every event so every EndEvent is a boundary
	s.Start(0)
	for i := 0; i < 8*maxProgressPoints; i++ {
		tok := s.BeginEvent(float64(i))
		s.EndEvent(tok)
	}
	s.Finish(float64(8 * maxProgressPoints))
	if len(s.points) > maxProgressPoints {
		t.Fatalf("points grew past cap: %d", len(s.points))
	}
	if len(s.points) < maxProgressPoints/4 {
		t.Fatalf("decimation too aggressive: %d points", len(s.points))
	}
	// Points must be time-ordered after decimation.
	for i := 1; i < len(s.points); i++ {
		if s.points[i].SimSeconds <= s.points[i-1].SimSeconds {
			t.Fatalf("points out of order at %d: %+v %+v", i, s.points[i-1], s.points[i])
		}
	}
}

func TestFlowBucket(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4,
		256: 8, 257: 9, 512: 9, 100000: 9}
	for flows, want := range cases {
		if got := flowBucket(flows); got != want {
			t.Fatalf("flowBucket(%d) = %d, want %d", flows, got, want)
		}
	}
}

// TestSamplerSteadyStateAllocs pins the per-event hot path — unsampled
// BeginEvent/EndEvent plus a count-only reallocation observation — at zero
// heap allocations, mirroring the fast-path tripwires elsewhere in the repo.
// A regression here silently burns the <2% overhead budget on GC.
func TestSamplerSteadyStateAllocs(t *testing.T) {
	s, _ := newTestSampler(1 << 30) // stride beyond the loop: nothing samples
	eng := sim.NewEngine()
	s.BindEngine(eng)
	s.Start(0)
	avg := testing.AllocsPerRun(1000, func() {
		tok := s.BeginEvent(1)
		rt := s.ReallocStart()
		s.ReallocDone(rt, 2, 4, 1)
		s.EndEvent(tok)
	})
	if avg != 0 {
		t.Fatalf("steady-state sampler path allocates: %v allocs/op", avg)
	}
}

// TestSamplerBoundaryAllocsBounded pins the sampled boundary path (queue
// snapshot + progress point, no tracer) at zero steady-state allocations
// once the progress buffer has reached capacity behavior.
func TestSamplerBoundaryAllocs(t *testing.T) {
	s, _ := newTestSampler(1) // every event is a boundary
	eng := sim.NewEngine()
	s.BindEngine(eng)
	s.Start(0)
	// Warm the progress buffer to its full capacity so appends stop growing.
	for i := 0; i < 2*maxProgressPoints; i++ {
		s.EndEvent(s.BeginEvent(float64(i)))
	}
	base := float64(2 * maxProgressPoints)
	var at float64
	avg := testing.AllocsPerRun(1000, func() {
		at++
		s.EndEvent(s.BeginEvent(base + at))
	})
	if avg != 0 {
		t.Fatalf("boundary path allocates: %v allocs/op", avg)
	}
}
