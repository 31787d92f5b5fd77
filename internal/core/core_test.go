package core

import (
	"testing"

	"heroserve/internal/collective"
	"heroserve/internal/model"
	"heroserve/internal/planner"
	"heroserve/internal/scheduler"
	"heroserve/internal/serving"
	"heroserve/internal/telemetry"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

func inputs(t *testing.T) planner.Inputs {
	t.Helper()
	g := topology.Testbed()
	trace := workload.NewGenerator(workload.Chatbot, 1).Generate(256, 1)
	return DefaultInputs(g, 2, planner.Inputs{
		Model:    model.OPT13B(),
		Workload: trace.BatchStats(16),
		Lambda:   1.0,
		SLA:      serving.SLA{TTFT: 2.5, TPOT: 0.15},
		Seed:     1,
	})
}

func TestDefaultInputsWiring(t *testing.T) {
	in := inputs(t)
	if len(in.PrefillGPUs) != 8 || len(in.DecodeGPUs) != 8 {
		t.Fatalf("pools %d/%d", len(in.PrefillGPUs), len(in.DecodeGPUs))
	}
	if !in.Hetero {
		t.Error("hetero not enabled")
	}
}

func TestPlanUsesHetero(t *testing.T) {
	in := inputs(t)
	in.Hetero = false // Plan must force it on
	plan, err := Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Deployment.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHeroServeEndToEnd(t *testing.T) {
	sys, plan, pol, err := NewSystem(inputs(t), nil, serving.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || pol == nil {
		t.Fatal("missing plan or policy")
	}
	trace := workload.NewGenerator(workload.Chatbot, 9).Generate(15, 2)
	res := sys.Run(trace)
	if res.Served != 15 {
		t.Fatalf("served %d/15", res.Served)
	}
	if res.PolicyName != "HeroServe" {
		t.Errorf("policy name %q", res.PolicyName)
	}
	if pol.Tables() == 0 {
		t.Error("no policy tables instantiated")
	}
	total := int64(0)
	for _, n := range pol.SchemeSelections() {
		total += n
	}
	if total == 0 {
		t.Error("online scheduler never selected a policy")
	}
}

func TestOnlinePolicyReactsToCongestion(t *testing.T) {
	// Build a context manually: congested ring edges push selection toward
	// INA/hetero policies over repeated calls.
	g := topology.Testbed()
	pol := NewOnlinePolicy(scheduler.DefaultConfig())
	sysDep := serving.Deployment{Model: model.OPT13B()}
	_ = sysDep
	eng, net, comm := newNet(g)
	_ = eng
	group := append(append([]topology.NodeID{}, g.ServerGPUs(0)[:2]...), g.ServerGPUs(1)[:2]...)
	ctx := &serving.GroupCtx{
		Comm:   comm,
		ID:     serving.GroupID{Role: serving.RolePrefill},
		Group:  group,
		Switch: g.Switches()[0],
		Scheme: collective.SchemeHetero,
	}
	completed := 0
	for i := 0; i < 6; i++ {
		pol.AllReduce(ctx, 1<<20, 2, func() { completed++ })
	}
	net.Engine().Run()
	if completed != 6 {
		t.Fatalf("completed %d/6", completed)
	}
	sel := pol.SchemeSelections()
	var total int64
	for _, n := range sel {
		total += n
	}
	if total != 6 {
		t.Fatalf("selections = %v", sel)
	}
}

func TestOnlinePolicyTableReuse(t *testing.T) {
	g := topology.Testbed()
	pol := NewOnlinePolicy(scheduler.DefaultConfig())
	_, net, comm := newNet(g)
	ctx := &serving.GroupCtx{
		Comm:  comm,
		ID:    serving.GroupID{Role: serving.RoleDecode, Instance: 3, Stage: 1},
		Group: g.ServerGPUs(2),
	}
	pol.AllReduce(ctx, 1<<16, 1, func() {})
	pol.AllReduce(ctx, 1<<16, 1, func() {})
	net.Engine().Run()
	if pol.Tables() != 1 {
		t.Errorf("tables = %d, want 1 (reused)", pol.Tables())
	}
}

func TestHeteroAblationFlag(t *testing.T) {
	g := topology.Testbed()
	pol := NewOnlinePolicy(scheduler.DefaultConfig())
	pol.Hetero = false
	_, net, comm := newNet(g)
	group := append(append([]topology.NodeID{}, g.ServerGPUs(0)[:2]...), g.ServerGPUs(1)[:2]...)
	ctx := &serving.GroupCtx{Comm: comm, Group: group, Switch: g.Switches()[0]}
	for i := 0; i < 4; i++ {
		pol.AllReduce(ctx, 1<<20, 1, func() {})
	}
	net.Engine().Run()
	if n := pol.SchemeSelections()[collective.SchemeHetero]; n != 0 {
		t.Errorf("hetero selected %d times with Hetero=false", n)
	}
}

// TestAuditHandlesAreLazyAndPerHub: binding the audit cache registers no
// series (a zero-valued one would change the exposition); a handle appears
// on its first use, is reused after, and a new hub gets its own handles.
func TestAuditHandlesAreLazyAndPerHub(t *testing.T) {
	p := NewOnlinePolicy(scheduler.DefaultConfig())
	h1, h2 := telemetry.New(), telemetry.New()
	p.metrics(h1)
	for _, fam := range []string{"collective_scheme_total", "decision_records_total", "policy_regret_seconds_total"} {
		if got := h1.Metrics.Children(fam); len(got) != 0 {
			t.Fatalf("%s registered before first use: %v", fam, got)
		}
	}
	c := p.metrics(h1).pick("ring", "table")
	c.Inc()
	if p.metrics(h1).pick("ring", "table") != c {
		t.Error("second lookup built a new handle")
	}
	if v, _ := h1.Metrics.Value("collective_scheme_total", "ring", "table"); v != 1 {
		t.Errorf("h1 pick count = %v, want 1", v)
	}
	p.metrics(h2).pick("ring", "table").Inc()
	p.metrics(h2).schemeRegret("ina-sync").Add(0.5)
	if v, _ := h1.Metrics.Value("collective_scheme_total", "ring", "table"); v != 1 {
		t.Errorf("h1 pick count = %v after rebinding to h2, want 1", v)
	}
	if v, _ := h2.Metrics.Value("collective_scheme_total", "ring", "table"); v != 1 {
		t.Errorf("h2 pick count = %v, want 1", v)
	}
	if got := h1.Metrics.Children("policy_regret_seconds_total"); len(got) != 0 {
		t.Errorf("h2's regret series leaked into h1: %v", got)
	}
}
