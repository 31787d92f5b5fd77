package critpath_test

import (
	"testing"

	"heroserve/internal/core"
	"heroserve/internal/model"
	"heroserve/internal/planner"
	"heroserve/internal/serving"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/critpath"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// TestServedRunMatchesReference: a served HeroServe run on the testbed, with
// several decode instances and elephant lanes, taps its span stream into
// both the analyzer and the reference analyzer. The decode groups' spans
// interleave, so a request's span log indices are not contiguous, and
// every request finalizes bit for bit as in the reference.
func TestServedRunMatchesReference(t *testing.T) {
	g := topology.Testbed()
	sla := serving.SLA{TTFT: 2.5, TPOT: 0.15}
	in := core.DefaultInputs(g, 2, planner.Inputs{
		Model:    model.OPT13B(),
		Workload: workload.NewGenerator(workload.Chatbot, 1).Generate(256, 1).BatchStats(32),
		Lambda:   20,
		SLA:      sla,
		Seed:     5,
	})
	hub := telemetry.New()
	sys, plan, _, err := core.NewSystem(in, nil, serving.Options{Telemetry: hub, SLA: &sla})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(plan.Deployment.Decode); n < 2 {
		t.Fatalf("plan has %d decode instances, want >= 2", n)
	}
	// The tap replaces the system's own collector; the analyzer under test
	// feeds the stage-share tracker in its place, so the run steers as an
	// armed run does.
	live, ref := critpath.New(), critpath.NewRefAnalyzer()
	live.OnFinalize(sys.StageShares().Observe)
	open := map[string][]int{}
	last := map[int]int{} // request -> close order of its last all-reduce
	closed, interleaved := 0, 0
	hub.Trace.Tap(func(ev telemetry.Event) {
		live.Feed(ev)
		ref.Feed(ev)
		if ev.Name != "allreduce" {
			return
		}
		switch ev.Ph {
		case "b":
			open[ev.ID] = append([]int(nil), ev.Args.Ints("reqs")...)
		case "e":
			closed++
			for _, r := range open[ev.ID] {
				if n, ok := last[r]; ok && n != closed-1 {
					interleaved++
				}
				last[r] = closed
			}
			delete(open, ev.ID)
		}
	})
	trace := workload.NewGenerator(workload.Chatbot, 9).Generate(200, 20)
	sys.InjectElephants(4, 512<<20, trace.Duration()+120, 3)
	res := sys.Run(trace)

	if len(ref.Finalized()) == 0 || len(ref.Finalized()) != res.Served {
		t.Fatalf("reference finalized %d requests, the run served %d", len(ref.Finalized()), res.Served)
	}
	if interleaved == 0 {
		t.Fatal("no request's all-reduces were interleaved with another batch's")
	}
	if d := critpath.DiffBreakdowns(live.Finalized(), ref.Finalized()); d != "" {
		t.Fatal(d)
	}
	t.Logf("%d requests, %d all-reduces, %d interleaved member steps", res.Served, closed, interleaved)
}
