package serving_test

import (
	"testing"

	"heroserve/internal/baselines"
	"heroserve/internal/collective"
	"heroserve/internal/core"
	"heroserve/internal/model"
	"heroserve/internal/netsim"
	"heroserve/internal/planner"
	"heroserve/internal/serving"
	"heroserve/internal/sim"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// hiddenRouter forwards to a router and hides its type, so a Comm over a
// StaticRouter wrapped in it bypasses the groups' route caches and routes
// every launch afresh, uncached, as it does under the load-aware router.
type hiddenRouter struct{ r collective.Router }

func (h hiddenRouter) Route(a, b topology.NodeID, size int64) (topology.Path, bool) {
	return h.r.Route(a, b, size)
}

// staticCase is one served configuration under a planned deployment, and
// the op counters its run must show for the configuration to cover what it
// is named after.
type staticCase struct {
	name  string
	in    planner.Inputs
	plan  func(planner.Inputs) (*planner.Plan, error)
	trace *workload.Trace
	cover func(collective.Counters) bool
}

func staticCases(t *testing.T) []staticCase {
	t.Helper()
	chat := func(g *topology.Graph, prefillServers int, m model.Config, minTens int) planner.Inputs {
		pre, dec := planner.SplitPoolsByServer(g, prefillServers)
		return planner.Inputs{
			Model:         m,
			Graph:         g,
			PrefillGPUs:   pre,
			DecodeGPUs:    dec,
			Workload:      workload.NewGenerator(workload.Chatbot, 9).Generate(32, 1).BatchStats(32),
			Lambda:        30,
			SLA:           serving.SLA{TTFT: 2.5, TPOT: 0.15},
			MinTensDecode: minTens,
			Seed:          1,
		}
	}
	chatTrace := workload.NewGenerator(workload.Chatbot, 7).Generate(120, 30)
	// Cross-server decode groups: OPT-66B with tensor parallelism spanning
	// the testbed's 4-GPU servers.
	cross := chat(topology.Testbed(), 2, model.OPT66B(), 8)
	cross.Lambda = 1
	pod := chat(topology.Pod8Tracks(24), 12, model.OPT66B(), 0)
	pod.Workload = workload.NewGenerator(workload.Summarization, 11).Generate(1, 1).BatchStats(1)
	pod.Lambda = 1
	pod.SLA = serving.SLA{TTFT: 25, TPOT: 0.2}
	inaBaseline := func(s collective.Scheme) func(planner.Inputs) (*planner.Plan, error) {
		return func(in planner.Inputs) (*planner.Plan, error) { return baselines.Plan(s, in) }
	}
	return []staticCase{
		{"planned-testbed-chatbot", chat(topology.Testbed(), 2, model.OPT13B(), 0), core.Plan, chatTrace,
			func(c collective.Counters) bool { return c.HeteroOps > 0 && c.RingOps > 0 }},
		{"planned-cross-server-hetero", cross, core.Plan, chatTrace,
			func(c collective.Counters) bool { return c.HeteroOps > 0 && c.INASyncOps > 0 }},
		{"ds-switchml", cross, inaBaseline(collective.SchemeINASync), chatTrace,
			func(c collective.Counters) bool { return c.INASyncOps > 0 }},
		{"ds-atp", cross, inaBaseline(collective.SchemeINAAsync), chatTrace,
			func(c collective.Counters) bool { return c.INAAsyncOps > 0 }},
		{"planned-pod8", pod, core.Plan, workload.NewGenerator(workload.Summarization, 11).Generate(12, 0.5),
			func(c collective.Counters) bool { return c.HeteroOps > 0 && c.Transfers > 0 }},
	}
}

// TestStaticRouterFastPathsMatchFlowByFlow serves each configuration under
// the planned policy four times: under a StaticRouter, which reads every
// phase's paths from the group's route cache, and under the same router
// hidden behind hiddenRouter, which routes every phase uncached, each on
// the fast and on the reference flow simulator. Every request's TTFT, TPOT
// and end-to-end time, the op counters and the duration must match bit for
// bit.
func TestStaticRouterFastPathsMatchFlowByFlow(t *testing.T) {
	sims := []struct {
		name string
		new  func(g *topology.Graph) (*sim.Engine, *netsim.Network)
	}{
		{"fast", func(g *topology.Graph) (*sim.Engine, *netsim.Network) {
			eng := sim.NewEngine()
			return eng, netsim.New(g, eng)
		}},
		{"reference", func(g *topology.Graph) (*sim.Engine, *netsim.Network) {
			eng := sim.NewReferenceEngine()
			return eng, netsim.NewReference(g, eng)
		}},
	}
	for _, tc := range staticCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.in.Graph
			plan, err := tc.plan(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range sims {
				var runs [2]*serving.Results
				for i, hide := range []bool{false, true} {
					factory := func(*netsim.Network) collective.Router {
						var r collective.Router = collective.NewStaticRouter(g)
						if hide {
							r = hiddenRouter{r}
						}
						return r
					}
					eng, net := s.new(g)
					sys, err := serving.NewOn(g, plan.Deployment, serving.Options{RouterFactory: factory}, eng, net)
					if err != nil {
						t.Fatal(err)
					}
					runs[i] = sys.Run(tc.trace)
				}
				static, hidden := runs[0], runs[1]
				if !tc.cover(static.Comm) {
					t.Fatalf("%s: counters %+v do not cover the case", s.name, static.Comm)
				}
				if static.Comm != hidden.Comm {
					t.Errorf("%s: counters %+v, flow by flow %+v", s.name, static.Comm, hidden.Comm)
				}
				if static.Duration != hidden.Duration || static.Served != hidden.Served {
					t.Errorf("%s: served %d in %v, flow by flow %d in %v", s.name, static.Served, static.Duration, hidden.Served, hidden.Duration)
				}
				if len(static.Requests) != len(hidden.Requests) {
					t.Fatalf("%s: %d requests, flow by flow %d", s.name, len(static.Requests), len(hidden.Requests))
				}
				for i, m := range static.Requests {
					if m != hidden.Requests[i] {
						t.Fatalf("%s: request %+v, flow by flow %+v", s.name, m, hidden.Requests[i])
					}
				}
			}
		})
	}
}
