package serving

import (
	"math"
	"testing"

	"heroserve/internal/collective"
	"heroserve/internal/model"
	"heroserve/internal/stats"
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

// TestResultsSummary: the /runs record reports the offered request count,
// not the served one, and carries the run's own latency summaries.
func TestResultsSummary(t *testing.T) {
	sla := SLA{TTFT: 2.5, TPOT: 0.15}
	res := runTrace(t, Options{}, 20, 2, workload.Chatbot)
	run := res.Summary("heroserve", "chatbot", 20, sla)
	ttft := stats.Summarize(res.TTFTs())
	if run.System != "heroserve" || run.Policy != res.PolicyName || run.Trace != "chatbot" ||
		run.Requests != 20 || run.Served != res.Served || run.SimSeconds != res.Duration ||
		run.Attainment != res.Attainment(sla) || run.TTFT.P99 != ttft.P99 || run.TTFT.Mean != ttft.Mean {
		t.Errorf("summary %+v does not match the run", run)
	}

	// Two of five offered requests completed.
	partial := &Results{Served: 2, Requests: res.Requests[:2]}
	if got := partial.Summary("distserve", "chatbot", 5, sla); got.Requests != 5 || got.Served != 2 {
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
// callbacks are for: once warm, a decode iteration of a TP=2 x PP=2
// instance (compute, two ring all-reduces, token accounting) allocates
// nothing with telemetry off.
func TestDecodeIterationSteadyStateAllocs(t *testing.T) {
	if referencePaths {
		t.Skip("zero allocations is a fast-path property; the reference allocator and event heap allocate by design")
	}
	g := topology.Testbed()
	sw := g.Switches()[0]
	pre, err := NewInstanceSpec(RolePrefill, g.ServerGPUs(0), 4, 1, sw, collective.SchemeRing)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewInstanceSpec(RoleDecode, g.ServerGPUs(1), 2, 2, sw, collective.SchemeRing)
	if err != nil {
		t.Fatal(err)
	}
	dep := Deployment{Model: model.OPT13B(), Prefill: []InstanceSpec{pre}, Decode: []InstanceSpec{dec}}
	sys, err := New(g, dep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	di := sys.decode[0]
	for i := 0; i < 8; i++ {
		// Requests that never finish keep the batch, and so every
		// iteration, the same.
		di.pending = append(di.pending, &request{req: workload.Request{ID: i, Input: 64, Output: math.MaxInt32}, target: di})
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
	if got := testing.AllocsPerRun(1000, iteration); got != 0 {
		t.Errorf("%.2f allocs per decode iteration, want 0", got)
	}
}
