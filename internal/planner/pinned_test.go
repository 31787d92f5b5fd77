package planner

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"heroserve/internal/model"
	"heroserve/internal/serving"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/*.plan from the current planner")

// pod8Inputs builds the planner CLI's default inputs on an 8-track pod:
// OPT-66B at 3 req/s, half the servers prefilling.
func pod8Inputs(servers int) Inputs {
	g := topology.Pod8Tracks(servers)
	pre, dec := SplitPoolsByServer(g, servers/2)
	trace := workload.NewGenerator(workload.Chatbot, 1).Generate(512, 1)
	return Inputs{
		Model:       model.OPT66B(),
		Graph:       g,
		PrefillGPUs: pre,
		DecodeGPUs:  dec,
		Workload:    trace.BatchStats(32),
		Lambda:      3,
		SLA:         serving.SLA{TTFT: 2.5, TPOT: 0.15},
		Hetero:      true,
		Seed:        1,
	}
}

// exact formats a float so that it parses back to the same bits.
func exact(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// dumpSolve runs Solve and renders every Trace line and every Plan field,
// floats exact, one fact a line.
func dumpSolve(in Inputs) string {
	var b strings.Builder
	in.Trace = func(c Candidate, h float64, reason string) {
		fmt.Fprintf(&b, "trace %v h=%s %s\n", c, exact(h), reason)
	}
	plan, err := Solve(in)
	if err != nil {
		fmt.Fprintf(&b, "error %v\n", err)
		return b.String()
	}
	fmt.Fprintf(&b, "candidate %v\n", plan.Candidate)
	for _, f := range []struct {
		name string
		v    float64
	}{{"tpre", plan.Tpre}, {"tdec", plan.Tdec}, {"tf", plan.Tf}, {"tqueue", plan.Tqueue}, {"tserve", plan.Tserve}, {"h", plan.H}} {
		fmt.Fprintf(&b, "%s %s (%#x)\n", f.name, exact(f.v), math.Float64bits(f.v))
	}
	fmt.Fprintf(&b, "candidates-tried %d\nperturb-iterations %d\n", plan.CandidatesTried, plan.PerturbIterations)
	for _, insts := range [][]serving.InstanceSpec{plan.Deployment.Prefill, plan.Deployment.Decode} {
		for i, inst := range insts {
			for s, stage := range inst.Stages {
				fmt.Fprintf(&b, "%v %d stage %d scheme=%v switch=%d gpus=%v\n", inst.Role, i, s, inst.Scheme[s], inst.AggSwitch[s], stage)
			}
		}
	}
	return b.String()
}

// TestSolveMatchesPinnedPlans holds Solve to the plans and candidate traces
// pinned in testdata/: a planner speed-up must not move a single choice or
// estimate. Regenerate with -update-pinned only for a deliberate change of
// the planner's output.
func TestSolveMatchesPinnedPlans(t *testing.T) {
	cases := []struct {
		name string
		in   func() Inputs
	}{
		{"testbed-opt13b", func() Inputs { return testbedInputs(t) }},
		{"pod8-12", func() Inputs { return pod8Inputs(12) }},
		{"pod8-48", func() Inputs { return pod8Inputs(48) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := dumpSolve(c.in())
			path := filepath.Join("testdata", c.name+".plan")
			if *updatePinned {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}
