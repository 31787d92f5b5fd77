package collective

import (
	"bytes"
	"reflect"
	"testing"

	"heroserve/internal/netsim"
	"heroserve/internal/sim"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/critpath"
	"heroserve/internal/topology"
)

// TestAllReduceSpanScratchKeepsAttribution: the allreduce span's arguments
// live in one buffer that every launch reuses, and its "reqs" list is the
// caller's slice, so the critical-path tap must copy what it keeps. Two
// overlapping allreduces, the second launched from the same (rewritten)
// request buffer, must charge each request its own collective: the live
// analyzer agrees with one fed the decoded span file, where every event
// owns its arguments.
func TestAllReduceSpanScratchKeepsAttribution(t *testing.T) {
	g := topology.Testbed()
	eng := sim.NewEngine()
	comm := NewComm(netsim.New(g, eng), NewStaticRouter(g))
	hub := telemetry.New()
	var spans bytes.Buffer
	if err := hub.Trace.StreamTo(&spans); err != nil {
		t.Fatal(err)
	}
	live := critpath.New()
	hub.Trace.Tap(live.Feed)
	hub.Attach(eng.Now, "p")
	comm.SetTelemetry(hub)

	group := NewGroup(g, g.ServerGPUs(0)[:2])
	reqs := []int{0}
	comm.AllReduce(SchemeRing, group, -1, 1<<24, 1, reqs, func() {})
	reqs[0] = 1 // the caller reuses its batch buffer
	comm.AllReduce(SchemeRing, group, -1, 1<<20, 1, reqs, func() {})
	eng.Run()
	end := eng.Now()
	for id := 0; id < 2; id++ {
		tid := id + 1
		hub.Trace.Complete(tid, "request", "request", 0, end, telemetry.Args{
			telemetry.Int("id", id), telemetry.Int("output", 1), telemetry.Str("trace_id", "r")})
		req := telemetry.Args{telemetry.Int("req", id)}
		hub.Trace.Complete(tid, "request", "queue", 0, 0, req)
		hub.Trace.Complete(tid, "request", "prefill", 0, end, req)
		hub.Trace.Complete(tid, "request", "kv-transfer", end, end, req)
	}
	if err := hub.Trace.CloseStream(); err != nil {
		t.Fatal(err)
	}

	got := live.Finalized()
	if len(got) != 2 {
		t.Fatalf("%d requests finalized, want 2", len(got))
	}
	ring := critpath.StageAllReduce(SchemeRing.String())
	if a, b := got[0].TTFTStages[ring], got[1].TTFTStages[ring]; a <= b || b <= 0 {
		t.Errorf("allreduce time charged to req 0 %g, req 1 %g: want both positive, req 0's (the larger op) more", a, b)
	}
	offline, err := critpath.FromTrace(&spans)
	if err != nil {
		t.Fatal(err)
	}
	if want := offline.Finalized(); !reflect.DeepEqual(got, want) {
		t.Errorf("live attribution differs from the span file's:\n live %+v\n file %+v", got, want)
	}
}

// TestAllReduceSpanEndRecycled: the callback that closes a traced
// all-reduce's span is recycled, so with telemetry armed a warm ring
// all-reduce allocates only the span's async id string, formatted once for
// both ends.
func TestAllReduceSpanEndRecycled(t *testing.T) {
	g := topology.Testbed()
	eng := sim.NewEngine()
	comm := NewComm(netsim.New(g, eng), NewStaticRouter(g))
	hub := telemetry.New()
	hub.Attach(eng.Now, "p")
	comm.SetTelemetry(hub)
	group := NewGroup(g, []topology.NodeID{g.ServerGPUs(0)[0], g.ServerGPUs(1)[0], g.ServerGPUs(2)[0]})
	before := hub.Trace.Len() // the process metadata
	ops, done := 0, 0
	finish := func() { done++ }
	cycle := func() {
		comm.AllReduce(SchemeRing, group, -1, 1<<20, 2, nil, finish)
		ops++
		eng.Run()
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(200, cycle); got != 1 {
		t.Errorf("%.2f allocs per traced launch→done cycle, want 1 (the async id string)", got)
	}
	if n := hub.Trace.Len() - before; done != ops || n != 2*ops {
		t.Errorf("%d of %d ops done, %d span events: want every op done with a begin and an end", done, ops, n)
	}
}
