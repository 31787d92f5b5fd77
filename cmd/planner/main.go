// Command planner runs HeroServe's scalability-oriented offline planner
// (paper Alg. 1 + Alg. 2) on a chosen topology and prints the resulting
// deployment: the Table II outputs — parallelism degrees, GPU groups,
// per-stage aggregation switches, and communication schemes.
//
// Usage:
//
//	planner -topology testbed -model opt-66b -rate 3 -ttft 2.5 -tpot 0.15
//	planner -topology pod2 -servers 12 -model opt-175b -rate 2 -hetero=false
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"heroserve/internal/model"
	"heroserve/internal/planner"
	"heroserve/internal/serving"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

func main() {
	topo := flag.String("topology", "testbed", "testbed | pod2 | pod8")
	servers := flag.Int("servers", 12, "pod server count (pod topologies)")
	modelName := flag.String("model", "opt-66b", "opt-13b | opt-66b | opt-175b")
	rate := flag.Float64("rate", 3, "arrival rate lambda (req/s)")
	ttft := flag.Float64("ttft", 2.5, "TTFT SLA (s)")
	tpot := flag.Float64("tpot", 0.15, "TPOT SLA (s)")
	kind := flag.String("workload", "chatbot", "chatbot | summarization")
	batch := flag.Int("batch", 32, "representative batch size Q")
	hetero := flag.Bool("hetero", true, "allow the heterogeneous INA scheme")
	minTens := flag.Int("min-tens-decode", 0, "floor on decode tensor parallelism (cross-server regime)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	verbose := flag.Bool("v", false, "trace every candidate's evaluation")
	flag.Parse()

	g, err := topology.ByName(*topo, *servers)
	if err != nil {
		usagef("%v", err)
	}
	cfg, err := model.ByName(*modelName)
	if err != nil {
		usagef("%v", err)
	}
	if *batch < 1 {
		usagef("-batch must be at least 1, got %d", *batch)
	}
	if !(*rate > 0) || math.IsInf(*rate, 1) {
		usagef("-rate must be a finite positive req/s, got %g", *rate)
	}
	var wk workload.Kind
	switch *kind {
	case "chatbot":
		wk = workload.Chatbot
	case "summarization":
		wk = workload.Summarization
	default:
		usagef("unknown workload %q (allowed: chatbot | summarization)", *kind)
	}
	trace := workload.NewGenerator(wk, *seed).Generate(512, 1)

	pre, dec := planner.SplitPoolsByServer(g, g.NumServers()/2)
	in := planner.Inputs{
		Model:         cfg,
		Graph:         g,
		PrefillGPUs:   pre,
		DecodeGPUs:    dec,
		Workload:      trace.BatchStats(*batch),
		Lambda:        *rate,
		SLA:           serving.SLA{TTFT: *ttft, TPOT: *tpot},
		Hetero:        *hetero,
		MinTensDecode: *minTens,
		Seed:          *seed,
	}
	if *verbose {
		in.Trace = func(c planner.Candidate, h float64, reason string) {
			fmt.Fprintf(os.Stderr, "  %v: H=%.4g  %s\n", c, h, reason)
		}
	}
	plan, err := planner.Solve(in)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("chosen configuration: %s\n", plan.Candidate)
	fmt.Printf("estimates: Tpre=%.4gs Tdec=%.4gs Tf=%.4gs Tqueue=%.4gs H=%.4g req/s\n",
		plan.Tpre, plan.Tdec, plan.Tf, plan.Tqueue, plan.H)
	fmt.Printf("search: %d candidates, %d perturbation iterations\n\n",
		plan.CandidatesTried, plan.PerturbIterations)

	show := func(role string, specs []serving.InstanceSpec) {
		fmt.Printf("%s instances: %d\n", role, len(specs))
		for i := range specs {
			spec := &specs[i]
			fmt.Printf("  instance %d (%dx%d):\n", i, spec.Ptens(), spec.Ppipe())
			for s, stage := range spec.Stages {
				swName := "-"
				if sw := spec.AggSwitch[s]; sw >= 0 {
					swName = g.Node(sw).Name
				}
				fmt.Printf("    stage %d: scheme=%-10s switch=%-14s gpus=", s, spec.Scheme[s], swName)
				for j, id := range stage {
					if j > 0 {
						fmt.Print(",")
					}
					fmt.Print(g.Node(id).Name)
				}
				fmt.Println()
			}
		}
	}
	show("prefill", plan.Deployment.Prefill)
	show("decode", plan.Deployment.Decode)
}

// usagef rejects a bad flag: one line, exit status 2.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "planner: "+format+"\n", args...)
	os.Exit(2)
}

// fatalf reports a planning failure: one line, exit status 1. Errors of
// the planner package already start with "planner: ", which is not
// repeated.
func fatalf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !strings.HasPrefix(msg, "planner: ") {
		msg = "planner: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
