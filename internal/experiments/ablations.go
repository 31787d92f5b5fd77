package experiments

import (
	"heroserve/internal/collective"
	"heroserve/internal/core"
	"heroserve/internal/model"
	"heroserve/internal/planner"
	"heroserve/internal/scheduler"
	"heroserve/internal/serving"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// AblationResult is one policy variant's outcome on the shared workload.
type AblationResult struct {
	Variant    string
	MeanTPOT   float64
	Attainment float64
}

// forcedScheme is a CommPolicy that always runs one scheme, ablating the
// online selector.
type forcedScheme struct {
	name   string
	scheme collective.Scheme
}

func (f forcedScheme) Name() string { return f.name }

func (f forcedScheme) AllReduce(ctx *serving.GroupCtx, msgBytes int64, steps int, done func()) {
	scheme := f.scheme
	if scheme.UsesINA() && ctx.Switch < 0 {
		scheme = collective.SchemeRing
	}
	ctx.Comm.AllReduceTagged(scheme, ctx.Group, ctx.Switch, msgBytes, steps, ctx.Reqs, done)
}

// AblationData runs the design-choice ablations DESIGN.md calls out, all on
// one OPT-66B testbed chatbot workload under background load:
//
//   - the online scheme selector vs forced always-ring / always-hetero,
//   - the load-penalty coupling f (Eq. 17-18) vs a decoupled table,
//   - the heterogeneous candidates vs an Ethernet-only policy set.
func AblationData(env Env) ([]AblationResult, error) {
	n := 40
	if env.Scale == Full {
		n = 100
	}
	g0 := topology.Testbed()
	pre, dec := planner.SplitPoolsByServer(g0, 2)
	trace512 := workload.NewGenerator(workload.Chatbot, env.Seed).Generate(512, 1)
	in := planner.Inputs{
		Model:         model.OPT66B(),
		Graph:         g0,
		PrefillGPUs:   pre,
		DecodeGPUs:    dec,
		Workload:      trace512.BatchStats(32),
		Lambda:        4,
		SLA:           serving.SLA{TTFT: 2.5, TPOT: 0.15},
		MinTensDecode: 8,
		Hetero:        true,
		Seed:          env.Seed,
	}
	plan, err := planner.Solve(in)
	if err != nil {
		return nil, err
	}

	// Every variant replays the same trace on the same deployment under the
	// same elephant lanes; only the communication policy differs.
	run := func(variant string, policy serving.CommPolicy) (AblationResult, error) {
		trace := workload.NewGenerator(workload.Chatbot, env.Seed+5).Generate(n, 4)
		res, err := env.simulate(variant, in.SLA, serving.Options{Policy: policy}, func(opts serving.Options) (*serving.System, error) {
			sys, err := serving.New(topology.Testbed(), plan.Deployment, opts)
			if err == nil {
				sys.InjectElephants(4, 512<<20, 60, env.Seed+99)
			}
			return sys, err
		}, trace)
		if err != nil {
			return AblationResult{}, err
		}
		return AblationResult{
			Variant:    variant,
			MeanTPOT:   meanPositive(res.TPOTs()),
			Attainment: res.Attainment(in.SLA),
		}, nil
	}

	noPenalty := core.NewOnlinePolicy(scheduler.Config{Gamma: 1e-9, Window: 0.1})
	ethernetOnly := core.NewOnlinePolicy(scheduler.DefaultConfig())
	ethernetOnly.Hetero = false

	variants := []struct {
		name   string
		policy serving.CommPolicy
	}{
		{"online scheduler (full)", core.NewOnlinePolicy(scheduler.DefaultConfig())},
		{"no load penalty (gamma->0)", noPenalty},
		{"ethernet-only policies", ethernetOnly},
		{"forced always-ring", forcedScheme{name: "always-ring", scheme: collective.SchemeRing}},
		{"forced always-hetero", forcedScheme{name: "always-hetero", scheme: collective.SchemeHetero}},
	}
	var out []AblationResult
	for _, v := range variants {
		res, err := run(v.name, v.policy)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Ablations renders the design-choice study.
func Ablations(env Env) (*Report, error) {
	data, err := AblationData(env)
	if err != nil {
		return nil, err
	}
	r := &Report{Name: "Ablations — design choices of the online scheduler"}
	t := r.AddTable("OPT-66B chatbot on the testbed, 0.25 req/s/GPU, background load",
		"variant", "mean TPOT (s)", "SLA attainment")
	for _, d := range data {
		t.AddRow(d.Variant, fmtF(d.MeanTPOT), fmtPct(d.Attainment))
	}
	r.AddNote("the full scheduler should approach the best forced scheme (which it cannot know a priori) and clearly beat always-ring and the Ethernet-only table; the load penalty mostly matters when policies share congested links")
	return r, nil
}
