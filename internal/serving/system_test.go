package serving

import (
	"math"
	"testing"

	"heroserve/internal/collective"
	"heroserve/internal/model"
	"heroserve/internal/netsim"
	"heroserve/internal/sim"
	"heroserve/internal/stats"
	"heroserve/internal/telemetry"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// testbedDeployment builds an OPT-13B deployment on the Fig. 6 testbed:
// server 0 (A100 x4, TP=4) prefills, server 1 (A100 x4, TP=4) decodes.
func testbedDeployment(t *testing.T, g *topology.Graph) Deployment {
	t.Helper()
	sw := g.Switches()[0]
	pre, err := NewInstanceSpec(RolePrefill, g.ServerGPUs(0), 4, 1, sw, collective.SchemeRing)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewInstanceSpec(RoleDecode, g.ServerGPUs(1), 4, 1, sw, collective.SchemeRing)
	if err != nil {
		t.Fatal(err)
	}
	return Deployment{Model: model.OPT13B(), Prefill: []InstanceSpec{pre}, Decode: []InstanceSpec{dec}}
}

func runTrace(t *testing.T, opts Options, n int, rate float64, kind workload.Kind) *Results {
	t.Helper()
	g := topology.Testbed()
	dep := testbedDeployment(t, g)
	sys, err := New(g, dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.NewGenerator(kind, 7).Generate(n, rate)
	return sys.Run(trace)
}

func TestServeSmoke(t *testing.T) {
	res := runTrace(t, Options{}, 30, 2, workload.Chatbot)
	if res.Served != 30 {
		t.Fatalf("served %d/30", res.Served)
	}
	if res.PolicyName != "planned" {
		t.Errorf("policy name %q", res.PolicyName)
	}
	for _, m := range res.Requests {
		if m.TTFT <= 0 {
			t.Errorf("request %d TTFT = %g", m.ID, m.TTFT)
		}
		if m.TPOT < 0 {
			t.Errorf("request %d TPOT = %g", m.ID, m.TPOT)
		}
		if m.EndToEnd < m.TTFT {
			t.Errorf("request %d end-to-end %g < TTFT %g", m.ID, m.EndToEnd, m.TTFT)
		}
	}
	if res.Duration <= 0 {
		t.Error("zero duration")
	}
	if res.Comm.RingOps == 0 {
		t.Error("no ring all-reduces executed despite TP=4")
	}
	if len(res.KVUtilization) != 1 {
		t.Fatalf("KV series count = %d", len(res.KVUtilization))
	}
	if len(res.KVUtilization[0].Points) == 0 {
		t.Error("empty KV series")
	}
	if res.PeakKVUtilization() <= 0 {
		t.Error("KV never utilized")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runTrace(t, Options{}, 20, 2, workload.Chatbot)
	b := runTrace(t, Options{}, 20, 2, workload.Chatbot)
	if a.Duration != b.Duration || a.Served != b.Served {
		t.Fatal("runs not deterministic")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d metrics differ", i)
		}
	}
}

func TestTTFTGrowsWithLoad(t *testing.T) {
	slow := runTrace(t, Options{}, 40, 0.5, workload.Chatbot)
	fast := runTrace(t, Options{}, 40, 20, workload.Chatbot)
	meanTTFT := func(r *Results) float64 {
		var sum float64
		for _, m := range r.Requests {
			sum += m.TTFT
		}
		return sum / float64(len(r.Requests))
	}
	if meanTTFT(fast) <= meanTTFT(slow) {
		t.Errorf("TTFT should grow with load: %g (light) vs %g (heavy)",
			meanTTFT(slow), meanTTFT(fast))
	}
	// Attainment degrades with load under a tight SLA.
	sla := SLA{TTFT: 2.5, TPOT: 0.15}
	if fast.Attainment(sla) > slow.Attainment(sla) {
		t.Errorf("attainment should not improve with load: %g vs %g",
			slow.Attainment(sla), fast.Attainment(sla))
	}
}

func TestAttainmentBounds(t *testing.T) {
	res := runTrace(t, Options{}, 20, 1, workload.Chatbot)
	generous := SLA{TTFT: 1e6, TPOT: 1e6}
	if got := res.Attainment(generous); got != 1 {
		t.Errorf("generous SLA attainment = %g, want 1", got)
	}
	impossible := SLA{TTFT: 1e-9, TPOT: 1e-9}
	if got := res.Attainment(impossible); got != 0 {
		t.Errorf("impossible SLA attainment = %g, want 0", got)
	}
	empty := &Results{}
	if empty.Attainment(generous) != 0 {
		t.Error("empty results attainment should be 0")
	}
}

// TestResultsSummary: the run summary reports the offered request count,
// not the served one, and carries the run's own latency summaries.
func TestResultsSummary(t *testing.T) {
	sla := SLA{TTFT: 2.5, TPOT: 0.15}
	res := runTrace(t, Options{}, 20, 2, workload.Chatbot)
	run := res.Summary(20, sla)
	ttft := stats.Summarize(res.TTFTs())
	if run.Requests != 20 || run.Served != res.Served || run.SimSeconds != res.Duration ||
		run.Attainment != res.Attainment(sla) || run.TTFT.P99 != ttft.P99 || run.TTFT.Mean != ttft.Mean {
		t.Errorf("summary %+v does not match the run", run)
	}

	// Two of five offered requests completed.
	partial := &Results{Served: 2, Requests: res.Requests[:2]}
	if got := partial.Summary(5, sla); got.Requests != 5 || got.Served != 2 {
		t.Errorf("requests=%d served=%d, want the offered 5 and the served 2", got.Requests, got.Served)
	}
}

func TestSingleTokenRequestsServedByPrefill(t *testing.T) {
	g := topology.Testbed()
	dep := testbedDeployment(t, g)
	sys, err := New(g, dep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	trace := &workload.Trace{Requests: []workload.Request{
		{ID: 0, Arrival: 0.001, Input: 128, Output: 1},
		{ID: 1, Arrival: 0.002, Input: 64, Output: 1},
	}}
	res := sys.Run(trace)
	if res.Served != 2 {
		t.Fatalf("served %d/2", res.Served)
	}
	for _, m := range res.Requests {
		if m.TPOT != 0 {
			t.Errorf("single-token request TPOT = %g, want 0", m.TPOT)
		}
	}
}

func TestKVPressureQueuesPending(t *testing.T) {
	// OPT-66B on 2 GPUs: weights alone exceed memory, so KV capacity is ~0
	// and every admission is forced/serialized. The system must still finish
	// (no livelock) and utilization is clamped.
	g := topology.Testbed()
	sw := g.Switches()[0]
	pre, err := NewInstanceSpec(RolePrefill, g.ServerGPUs(0), 4, 1, sw, collective.SchemeRing)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewInstanceSpec(RoleDecode, g.ServerGPUs(1)[:2], 2, 1, sw, collective.SchemeRing)
	if err != nil {
		t.Fatal(err)
	}
	dep := Deployment{Model: model.OPT66B(), Prefill: []InstanceSpec{pre}, Decode: []InstanceSpec{dec}}
	sys, err := New(g, dep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	trace := &workload.Trace{Requests: []workload.Request{
		{ID: 0, Arrival: 0.01, Input: 256, Output: 4},
		{ID: 1, Arrival: 0.02, Input: 256, Output: 4},
		{ID: 2, Arrival: 0.03, Input: 256, Output: 4},
	}}
	res := sys.Run(trace)
	if res.Served != 3 {
		t.Fatalf("served %d/3 under KV pressure", res.Served)
	}
}

func TestPipelinedInstance(t *testing.T) {
	// 2 stages x 2 GPUs spanning servers: exercises pipeline activation
	// transfers and per-stage sync.
	g := topology.Testbed()
	sw := g.Switches()[0]
	gpus := append(append([]topology.NodeID{}, g.ServerGPUs(0)[:2]...), g.ServerGPUs(1)[:2]...)
	pre, err := NewInstanceSpec(RolePrefill, gpus, 2, 2, sw, collective.SchemeRing)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewInstanceSpec(RoleDecode, g.ServerGPUs(2), 2, 2, sw, collective.SchemeRing)
	if err != nil {
		t.Fatal(err)
	}
	dep := Deployment{Model: model.OPT13B(), Prefill: []InstanceSpec{pre}, Decode: []InstanceSpec{dec}}
	sys, err := New(g, dep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.NewGenerator(workload.Chatbot, 3).Generate(10, 2)
	res := sys.Run(trace)
	if res.Served != 10 {
		t.Fatalf("served %d/10", res.Served)
	}
	// Pipeline + KV transfers happened.
	if res.Comm.Transfers == 0 {
		t.Error("no transfers despite pipeline and KV migration")
	}
}

func TestHeteroPolicyEndToEnd(t *testing.T) {
	// Force the hetero scheme through the planned policy: all-reduce must
	// still complete and serve everything.
	g := topology.Testbed()
	sw := g.Switches()[0]
	gpus := append(append([]topology.NodeID{}, g.ServerGPUs(0)[:2]...), g.ServerGPUs(1)[:2]...)
	pre, err := NewInstanceSpec(RolePrefill, gpus, 4, 1, sw, collective.SchemeHetero)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewInstanceSpec(RoleDecode, g.ServerGPUs(2), 4, 1, sw, collective.SchemeINASync)
	if err != nil {
		t.Fatal(err)
	}
	dep := Deployment{Model: model.OPT13B(), Prefill: []InstanceSpec{pre}, Decode: []InstanceSpec{dec}}
	sys, err := New(g, dep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(workload.NewGenerator(workload.Chatbot, 5).Generate(8, 2))
	if res.Served != 8 {
		t.Fatalf("served %d/8", res.Served)
	}
	if res.Comm.HeteroOps == 0 {
		t.Error("hetero scheme never executed")
	}
	if res.Comm.INASyncOps == 0 {
		t.Error("INA scheme never executed")
	}
}

func TestValidationErrors(t *testing.T) {
	g := topology.Testbed()
	good := testbedDeployment(t, g)

	if _, err := New(g, Deployment{Model: model.OPT13B()}, Options{}); err == nil {
		t.Error("empty deployment accepted")
	}
	bad := good
	bad.Prefill = []InstanceSpec{{Role: RoleDecode}}
	if _, err := New(g, bad, Options{}); err == nil {
		t.Error("role mismatch accepted")
	}
	if _, err := NewInstanceSpec(RolePrefill, g.ServerGPUs(0), 3, 1, -1, collective.SchemeRing); err == nil {
		t.Error("GPU count mismatch accepted")
	}
	if _, err := NewInstanceSpec(RolePrefill, nil, 0, 1, -1, collective.SchemeRing); err == nil {
		t.Error("zero parallelism accepted")
	}
	// Ragged stages.
	spec := InstanceSpec{Role: RolePrefill, Stages: [][]topology.NodeID{g.ServerGPUs(0)[:2], g.ServerGPUs(0)[:1]}}
	if err := spec.Validate(); err == nil {
		t.Error("ragged stages accepted")
	}
	// Non-GPU node inside an instance.
	badNode := good
	badNode.Prefill = append([]InstanceSpec{}, good.Prefill...)
	stages := [][]topology.NodeID{{g.Switches()[0], g.ServerGPUs(0)[0]}}
	badNode.Prefill[0] = InstanceSpec{Role: RolePrefill, Stages: stages}
	if _, err := New(g, badNode, Options{}); err == nil {
		t.Error("switch inside an instance accepted")
	}
}

func TestInstanceSpecAccessors(t *testing.T) {
	g := topology.Testbed()
	spec, err := NewInstanceSpec(RolePrefill, g.ServerGPUs(0), 2, 2, 5, collective.SchemeINAAsync)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Ptens() != 2 || spec.Ppipe() != 2 {
		t.Errorf("parallelism accessors: %dx%d", spec.Ptens(), spec.Ppipe())
	}
	if len(spec.GPUs()) != 4 {
		t.Error("GPUs()")
	}
	if spec.stageSwitch(0) != 5 || spec.stageScheme(1) != collective.SchemeINAAsync {
		t.Error("stage metadata")
	}
	var empty InstanceSpec
	if empty.Ptens() != 0 {
		t.Error("empty spec Ptens")
	}
	if empty.stageSwitch(0) != -1 || empty.stageScheme(0) != collective.SchemeRing {
		t.Error("empty spec stage defaults")
	}
	if RolePrefill.String() != "prefill" || RoleDecode.String() != "decode" {
		t.Error("role strings")
	}
}

func TestInjectBurstsCongestsNetwork(t *testing.T) {
	base := runTrace(t, Options{}, 25, 4, workload.Chatbot)

	g := topology.Testbed()
	dep := testbedDeployment(t, g)
	sys, err := New(g, dep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bursts := workload.BurstTrain(11, 60, 3, 6, 64<<20)
	sys.InjectBursts(bursts, 13)
	trace := workload.NewGenerator(workload.Chatbot, 7).Generate(25, 4)
	loaded := sys.Run(trace)

	if loaded.Served != 25 {
		t.Fatalf("served %d/25 with background traffic", loaded.Served)
	}
	meanTPOT := func(r *Results) float64 {
		var s float64
		n := 0
		for _, m := range r.Requests {
			if m.TPOT > 0 {
				s += m.TPOT
				n++
			}
		}
		return s / float64(n)
	}
	if meanTPOT(loaded) <= meanTPOT(base) {
		t.Errorf("background bursts should slow decoding: %g vs %g",
			meanTPOT(base), meanTPOT(loaded))
	}
}

// TestInjectBurstsSkipsEmptyBursts: on two GPUs, a one-flow burst whose pair
// draws the same GPU twice routes nothing and starts no flow group, which
// would panic empty; every other burst starts and delivers its one flow.
func TestInjectBurstsSkipsEmptyBursts(t *testing.T) {
	g := topology.NewGraph()
	a := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 0})
	b := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: 1})
	g.AddEdge(a, b, topology.LinkEthernet, 1e9, 0)
	eng := sim.NewEngine()
	net := netsim.New(g, eng)
	hub := telemetry.New()
	net.SetTelemetry(hub)
	s := &System{g: g, eng: eng, net: net}
	bursts := make([]workload.Burst, 20)
	for i := range bursts {
		bursts[i] = workload.Burst{At: float64(i), Flows: 1, Bytes: 1 << 20}
	}
	s.InjectBursts(bursts, 13)
	eng.Run()
	started := hub.Metrics.Counter("net_flows_started_total", "", nil).Value()
	delivered := hub.Metrics.Counter("net_flows_delivered_total", "", nil).Value()
	if started == 0 || started >= float64(len(bursts)) {
		t.Errorf("%g of %d one-flow bursts started a flow, want some but not all", started, len(bursts))
	}
	if delivered != started {
		t.Errorf("%g flows delivered of %g started", delivered, started)
	}
}

func TestMeanKVUtilization(t *testing.T) {
	res := runTrace(t, Options{}, 20, 2, workload.Chatbot)
	mean := res.MeanKVUtilization()
	if mean < 0 || math.IsNaN(mean) {
		t.Errorf("mean KV utilization = %g", mean)
	}
	if (&Results{}).MeanKVUtilization() != 0 {
		t.Error("empty results KV mean")
	}
}

func BenchmarkServeChatbot(b *testing.B) {
	g := topology.Testbed()
	sw := g.Switches()[0]
	pre, _ := NewInstanceSpec(RolePrefill, g.ServerGPUs(0), 4, 1, sw, collective.SchemeRing)
	dec, _ := NewInstanceSpec(RoleDecode, g.ServerGPUs(1), 4, 1, sw, collective.SchemeRing)
	dep := Deployment{Model: model.OPT13B(), Prefill: []InstanceSpec{pre}, Decode: []InstanceSpec{dec}}
	trace := workload.NewGenerator(workload.Chatbot, 7).Generate(20, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := New(g, dep, Options{})
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(trace)
	}
}

// TestDecodeIterationSteadyStateAllocs pins what the per-instance decode
// callbacks and prepared stage groups are for: once warm, a decode
// iteration of a TP=2 x PP=2 instance on one server (compute, two
// all-reduces, token accounting) allocates nothing with telemetry off,
// whether its stages ring or run the heterogeneous all-reduce. Neither
// does a prefill pass's activation hand-off between pipeline stages.
func TestDecodeIterationSteadyStateAllocs(t *testing.T) {
	for _, scheme := range []collective.Scheme{collective.SchemeRing, collective.SchemeHetero} {
		if got := decodeIterationAllocs(t, Options{}, scheme); got != 0 {
			t.Errorf("%v: %.2f allocs per decode iteration, want 0", scheme, got)
		}
	}
	if got := handoffAllocs(t, Options{}); got != 0 {
		t.Errorf("%.2f allocs per pipeline hand-off, want 0", got)
	}
}

// TestArmedDecodeIterationAllocs is the same iteration with telemetry
// armed: a hub holding metrics and a counting tracer, tapped by the
// critical-path collector. The per-instance reqs buffer, the analyzer's
// free lists and the tracer's own Dur leave only the async span ID of each
// stage's all-reduce, formatted once for its begin and end: 2 strings per
// iteration. The
// never-finishing requests' all-reduce intervals keep growing, but those
// appends are amortized below one allocation per iteration. An armed
// pipeline hand-off reuses its instance's span arguments, its stage's
// counter handle and a recycled span closer, which leaves its span ID.
func TestArmedDecodeIterationAllocs(t *testing.T) {
	if got := decodeIterationAllocs(t, Options{Telemetry: telemetry.New()}, collective.SchemeRing); got != 2 {
		t.Errorf("%.2f allocs per armed decode iteration, want 2 (the async span IDs)", got)
	}
	if got := handoffAllocs(t, Options{Telemetry: telemetry.New()}); got != 1 {
		t.Errorf("%.2f allocs per armed pipeline hand-off, want 1 (the async span ID)", got)
	}
}

// stagedSystem builds a testbed System with one TP=2 x PP=2 prefill
// instance on server 0 and one TP=2 x PP=2 decode instance, whose stages
// synchronize with scheme, on server 1.
func stagedSystem(t *testing.T, opts Options, scheme collective.Scheme) *System {
	t.Helper()
	if referencePaths {
		t.Skip("zero allocations is a fast-path property; the reference allocator and event heap allocate by design")
	}
	g := topology.Testbed()
	sw := g.Switches()[0]
	pre, err := NewInstanceSpec(RolePrefill, g.ServerGPUs(0), 2, 2, sw, collective.SchemeRing)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewInstanceSpec(RoleDecode, g.ServerGPUs(1), 2, 2, sw, scheme)
	if err != nil {
		t.Fatal(err)
	}
	dep := Deployment{Model: model.OPT13B(), Prefill: []InstanceSpec{pre}, Decode: []InstanceSpec{dec}}
	sys, err := New(g, dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// handoffAllocs warms the prefill instance's hand-off from its first
// pipeline stage to its second, for a pass of three requests, and returns
// testing.AllocsPerRun of one more hand-off, up to its delivery.
func handoffAllocs(t *testing.T, opts Options) float64 {
	t.Helper()
	sys := stagedSystem(t, opts, collective.SchemeRing)
	pi := sys.prefill[0]
	pi.reqs, pi.kin = append(pi.reqs[:0], 0, 1, 2), 3*64
	delivered := 0
	pi.handedOff = func() { delivered++ }
	handoff := func() {
		pi.stage = 0
		n := delivered
		sys.prefillSynced(pi)
		for delivered == n {
			if !sys.eng.Step() {
				t.Fatal("engine drained mid-hand-off")
			}
		}
	}
	for i := 0; i < 100; i++ {
		handoff()
	}
	return testing.AllocsPerRun(1000, handoff)
}

// decodeIterationAllocs warms the TP=2 x PP=2 decode instance of a
// stagedSystem, running a batch of 8 requests that never finish (so the
// batch, and every iteration, stays the same), and returns
// testing.AllocsPerRun of one more iteration.
func decodeIterationAllocs(t *testing.T, opts Options, scheme collective.Scheme) float64 {
	t.Helper()
	sys := stagedSystem(t, opts, scheme)
	di := sys.decode[0]
	for i := 0; i < 8; i++ {
		di.pending.push(&request{req: workload.Request{ID: i, Input: 64, Output: math.MaxInt32}, target: di})
	}
	sys.admitDecode(di)
	sys.maybeIterate(di)
	iteration := func() {
		for n := di.iterations; di.iterations == n; {
			if !sys.eng.Step() {
				t.Fatal("engine drained mid-iteration")
			}
		}
	}
	for i := 0; i < 1000; i++ {
		iteration()
	}
	allocs := testing.AllocsPerRun(1000, iteration)
	if c := sys.comm.Counters(); scheme == collective.SchemeHetero && (c.RingOps != 0 || c.HeteroOps == 0) {
		t.Fatalf("stages ran %d ring and %d hetero all-reduces, want hetero only", c.RingOps, c.HeteroOps)
	}
	return allocs
}

// TestRequestQueueReusesItsArray: the queue pops in push order, clears the
// slots it pops, and under a steady pop-and-push load keeps one backing
// array instead of growing or reallocating.
func TestRequestQueueReusesItsArray(t *testing.T) {
	var q requestQueue
	reqs := make([]*request, 64)
	for i := range reqs {
		reqs[i] = &request{req: workload.Request{ID: i}}
	}
	next, want := 0, 0
	push := func() {
		q.push(reqs[next%len(reqs)])
		next++
	}
	pop := func() {
		if got := q.pop(); got != reqs[want%len(reqs)] {
			t.Fatalf("popped request %d, want %d", got.req.ID, want%len(reqs))
		}
		want++
	}
	for i := 0; i < 5; i++ {
		push()
	}
	for i := 0; i < 100; i++ {
		pop()
		push()
	}
	array, capacity := &q.items[:1][0], cap(q.items)
	if allocs := testing.AllocsPerRun(1000, func() { pop(); push() }); allocs != 0 {
		t.Errorf("%.2f allocs per pop and push, want 0", allocs)
	}
	if &q.items[:1][0] != array || cap(q.items) != capacity {
		t.Errorf("backing array replaced (cap %d -> %d)", capacity, cap(q.items))
	}
	for i := range q.items[:q.head] {
		if q.items[i] != nil {
			t.Fatalf("popped slot %d still holds a request", i)
		}
	}
	for q.len() > 0 {
		pop()
	}
	if want != next {
		t.Errorf("popped %d of %d pushed requests", want, next)
	}
}

// peakProbe is an engine profiler that records the event queue's peak
// number of live events.
type peakProbe struct {
	eng  *sim.Engine
	peak int
}

func (p *peakProbe) BeginEvent(sim.Time) int64 {
	if l := p.eng.QueueStats().Live; l > p.peak {
		p.peak = l
	}
	return 0
}

func (p *peakProbe) EndEvent(int64) {}

// TestArrivalsDoNotDeepenTheQueue: a trace's arrivals go to the engine as
// one stream, so the events queued at once are those of the requests in
// service, however many requests are still to arrive. The deep trace is the
// 500-request one (arriving at 40 req/s, several times what one prefill and
// one decode instance serve) replayed eight times, each copy once the one
// before has drained: the system serves the same overload eight times over,
// and only the count of requests yet to arrive differs. Its peak must not
// exceed the single copy's.
func TestArrivalsDoNotDeepenTheQueue(t *testing.T) {
	g := topology.Testbed()
	peak := func(trace *workload.Trace) (int, *Results) {
		sys, err := New(g, testbedDeployment(t, g), Options{})
		if err != nil {
			t.Fatal(err)
		}
		probe := &peakProbe{eng: sys.eng}
		sys.eng.SetProfiler(probe)
		res := sys.Run(trace)
		if res.Served != len(trace.Requests) {
			t.Fatalf("served %d of %d requests", res.Served, len(trace.Requests))
		}
		return probe.peak, res
	}
	one := workload.NewGenerator(workload.Chatbot, 7).Generate(500, 40)
	small, res := peak(one)
	period := math.Ceil(res.Duration) + 1
	deep := &workload.Trace{}
	for k := 0; k < 8; k++ {
		for _, r := range one.Requests {
			r.ID += k * len(one.Requests)
			r.Arrival += float64(k) * period
			deep.Requests = append(deep.Requests, r)
		}
	}
	large, _ := peak(deep)
	t.Logf("peak live events: %d with 500 requests, %d with 4000", small, large)
	if large > small {
		t.Errorf("peak live events grew from %d to %d with the trace", small, large)
	}
}

// TestRunAllocsPerRequest pins the allocations a warm Run makes per
// request, telemetry off: the margin between a 4000-request and a
// 500-request trace at the same overload. The request state lives in one
// slab, the arrivals are one stream and the KV hand-offs are recycled, so
// what grows with the trace is amortized slice growth: the results'
// metrics and the KV utilization series. 0.03 is the margin measured on
// the testbed deployment (0.026); a request-sized allocation anywhere on
// the path adds at least 1.
func TestRunAllocsPerRequest(t *testing.T) {
	if referencePaths {
		t.Skip("the reference allocator and event heap allocate by design")
	}
	g := topology.Testbed()
	dep := testbedDeployment(t, g)
	allocs := func(n int) float64 {
		trace := workload.NewGenerator(workload.Chatbot, 7).Generate(n, 40)
		return testing.AllocsPerRun(2, func() {
			sys, err := New(g, dep, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res := sys.Run(trace); res.Served != n {
				t.Fatalf("served %d of %d requests", res.Served, n)
			}
		})
	}
	small, large := allocs(500), allocs(4000)
	perReq := (large - small) / 3500
	t.Logf("%.0f allocs for 500 requests, %.0f for 4000: %.4f per request", small, large, perReq)
	if perReq > 0.03 {
		t.Errorf("%.4f allocs per request in a warm Run, want at most 0.03", perReq)
	}
}
