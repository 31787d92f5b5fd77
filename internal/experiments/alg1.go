package experiments

import (
	"fmt"
	"time"

	"heroserve/internal/planner"
	"heroserve/internal/serving"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// Alg1Result records the offline planner's search telemetry on one topology
// (the §III-C3 claims: solutions found quickly, max_candi = 20 near-optimal,
// perturbation converging within five iterations).
type Alg1Result struct {
	Topology          string
	Hetero            bool
	WallTime          time.Duration
	Candidates        int
	PerturbIterations int
	Chosen            planner.Candidate
	H                 float64
	Tpre, Tdec        float64
}

// Alg1Data runs the planner on the testbed (OPT-66B) and a pod (OPT-175B),
// with and without the heterogeneous scheme.
func Alg1Data(env Env) ([]Alg1Result, error) {
	type job struct {
		name  string
		build func() planner.Inputs
	}
	jobs := []job{
		{
			name: "testbed/OPT-66B",
			build: func() planner.Inputs {
				g := topology.Testbed()
				return fig7Inputs(g, workload.Chatbot, serving.SLA{TTFT: 2.5, TPOT: 0.15}, 3, env.Seed)
			},
		},
		{
			name: "pod-2tracks/OPT-175B",
			build: func() planner.Inputs {
				servers := fig8Servers
				if env.Scale == Full {
					servers *= 2
				}
				g := topology.Pod2Tracks(servers)
				rate := 0.02 * float64(len(g.GPUs()))
				return fig8Inputs(g, workload.Chatbot, serving.SLA{TTFT: 4, TPOT: 0.2}, rate, env.Seed)
			},
		},
	}
	var out []Alg1Result
	for _, j := range jobs {
		for _, hetero := range []bool{true, false} {
			in := j.build()
			in.Hetero = hetero
			start := time.Now()
			plan, err := planner.Solve(in)
			elapsed := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("alg1 %s hetero=%v: %w", j.name, hetero, err)
			}
			out = append(out, Alg1Result{
				Topology:          j.name,
				Hetero:            hetero,
				WallTime:          elapsed,
				Candidates:        plan.CandidatesTried,
				PerturbIterations: plan.PerturbIterations,
				Chosen:            plan.Candidate,
				H:                 plan.H,
				Tpre:              plan.Tpre,
				Tdec:              plan.Tdec,
			})
		}
	}
	return out, nil
}

// Alg1 renders the planner telemetry.
func Alg1(env Env) (*Report, error) {
	data, err := Alg1Data(env)
	if err != nil {
		return nil, err
	}
	r := &Report{Name: "Alg. 1 — Offline planner search telemetry (§III-C3 claims)"}
	t := r.AddTable("planner runs",
		"topology", "hetero", "wall time", "candidates", "perturb iters", "chosen P_all", "H (req/s)", "Tpre (s)", "Tdec (s)")
	for _, d := range data {
		t.AddRow(d.Topology, fmt.Sprintf("%v", d.Hetero), d.WallTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", d.Candidates), fmt.Sprintf("%d", d.PerturbIterations),
			d.Chosen.String(), fmtF(d.H), fmtF(d.Tpre), fmtF(d.Tdec))
	}
	r.AddNote("paper: solutions within 10 minutes (28.57%% faster than DistServe's planner), max_candi=20 near-optimal, perturbation converges within five iterations")
	return r, nil
}
