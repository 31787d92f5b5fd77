package baselines_test

import (
	"testing"

	"heroserve/internal/baselines"
	"heroserve/internal/collective"
	"heroserve/internal/core"
	"heroserve/internal/model"
	"heroserve/internal/planner"
	"heroserve/internal/serving"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// inputs plans OPT-66B in the cross-server decode regime (MinTensDecode
// spans the testbed's 4-GPU servers), so the INA baselines actually have
// spanning groups to offload.
func inputs(t *testing.T) planner.Inputs {
	t.Helper()
	g := topology.Testbed()
	pre, dec := planner.SplitPoolsByServer(g, 2)
	trace := workload.NewGenerator(workload.Chatbot, 1).Generate(256, 1)
	return planner.Inputs{
		Model:         model.OPT66B(),
		Graph:         g,
		PrefillGPUs:   pre,
		DecodeGPUs:    dec,
		Workload:      trace.BatchStats(32),
		Lambda:        1.0,
		SLA:           serving.SLA{TTFT: 2.5, TPOT: 0.15},
		MinTensDecode: 8,
		Seed:          1,
	}
}

// spansServers reports whether a stage group crosses servers.
func spansServers(t *testing.T, in planner.Inputs, inst serving.InstanceSpec, stage int) bool {
	t.Helper()
	group := inst.Stages[stage]
	for _, id := range group[1:] {
		if !in.Graph.SameServer(group[0], id) {
			return true
		}
	}
	return false
}

// rows is the systems table's baseline rows: every row but HeroServe's.
func rows(t *testing.T) []core.System {
	t.Helper()
	var out []core.System
	for _, s := range core.Systems {
		if s.Scheme != collective.SchemeHetero {
			out = append(out, s)
		}
	}
	if len(out) != 3 {
		t.Fatalf("the systems table holds %d baselines, want 3", len(out))
	}
	return out
}

func TestKindStrings(t *testing.T) {
	want := map[string]collective.Scheme{
		"DistServe":   collective.SchemeRing,
		"DS-SwitchML": collective.SchemeINASync,
		"DS-ATP":      collective.SchemeINAAsync,
	}
	for _, s := range rows(t) {
		if scheme, ok := want[s.Display]; !ok || s.Scheme != scheme {
			t.Errorf("%s runs %v, want %v", s.Display, s.Scheme, scheme)
		}
	}
}

func TestPlanOverridesSchemes(t *testing.T) {
	for _, scheme := range []collective.Scheme{collective.SchemeRing, collective.SchemeINASync, collective.SchemeINAAsync} {
		in := inputs(t)
		plan, err := baselines.Plan(scheme, in)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		spanningINA := 0
		for _, inst := range append(plan.Deployment.Prefill, plan.Deployment.Decode...) {
			for s, sch := range inst.Scheme {
				spanning := spansServers(t, in, inst, s) && inst.AggSwitch[s] >= 0
				switch {
				case scheme == collective.SchemeRing && sch != collective.SchemeRing:
					t.Errorf("ring baseline stage scheme = %v", sch)
				case scheme != collective.SchemeRing && spanning && sch != scheme:
					t.Errorf("%v baseline spanning stage scheme = %v", scheme, sch)
				case !spanning && sch != collective.SchemeRing:
					t.Errorf("%v intra-server stage scheme = %v, want ring", scheme, sch)
				}
				if spanning {
					spanningINA++
				}
				if sch == collective.SchemeHetero {
					t.Errorf("%v plan contains the heterogeneous scheme", scheme)
				}
			}
		}
		if spanningINA == 0 {
			t.Errorf("%v plan has no spanning stages: the cross-server regime is not engaged", scheme)
		}
	}
}

func TestBaselineSystemsServe(t *testing.T) {
	trace := workload.NewGenerator(workload.Chatbot, 5).Generate(12, 2)
	for _, s := range rows(t) {
		in := inputs(t)
		plan, err := s.Plan(in)
		if err != nil {
			t.Fatalf("%s: %v", s.Display, err)
		}
		sys, err := s.Build(in, plan, serving.Options{})
		if err != nil {
			t.Fatalf("%s: %v", s.Display, err)
		}
		res := sys.Run(trace)
		if res.Served != 12 {
			t.Fatalf("%s served %d/12", s.Display, res.Served)
		}
		if res.PolicyName != s.Display {
			t.Errorf("policy name %q, want %q", res.PolicyName, s.Display)
		}
		ops := map[collective.Scheme]int64{
			collective.SchemeRing:     res.Comm.RingOps,
			collective.SchemeINASync:  res.Comm.INASyncOps,
			collective.SchemeINAAsync: res.Comm.INAAsyncOps,
			collective.SchemeHetero:   res.Comm.HeteroOps,
		}
		if ops[s.Scheme] == 0 {
			t.Errorf("%s never ran %v", s.Display, s.Scheme)
		}
		for scheme, n := range ops {
			if scheme != s.Scheme && scheme != collective.SchemeRing && n > 0 {
				t.Errorf("%s ran %d %v ops", s.Display, n, scheme)
			}
		}
	}
}
