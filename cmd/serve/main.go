// Command serve replays a request trace (from cmd/tracegen or hand-written
// JSON) through a chosen serving system on a chosen topology and prints the
// latency outcomes — the end-to-end path a downstream user drives.
//
// Usage:
//
//	tracegen -kind chatbot -n 100 -rate 4 > trace.json
//	serve -trace trace.json -system heroserve -topology testbed -model opt-66b
//	serve -trace trace.json -system distserve -elephants 4
//	serve -trace trace.json -out run/
//
// -out writes the run bundle: run/spans.json (Chrome trace events,
// Perfetto-loadable), run/metrics.prom (the final metrics as Prometheus
// text), run/decisions.json (the
// counterfactual decision ledger), run/alerts.json (the SLO alert log, while a
// monitor is armed) and run/perf.json (the simulator's self-profiling
// report). `hstat <kind> run/` reads any of them.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"heroserve/internal/cli"
	"heroserve/internal/core"
	"heroserve/internal/model"
	"heroserve/internal/planner"
	"heroserve/internal/serving"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/critpath"
	"heroserve/internal/telemetry/decisions"
	"heroserve/internal/telemetry/perf"
	"heroserve/internal/telemetry/slo"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

func main() {
	tracePath := flag.String("trace", "", "JSON trace file ('-' for stdin)")
	system := flag.String("system", "heroserve", core.SystemNames())
	topo := flag.String("topology", "testbed", "testbed | pod2 | pod8")
	servers := flag.Int("servers", 12, "pod server count")
	modelName := flag.String("model", "opt-66b", "opt-13b | opt-66b | opt-175b")
	ttft := flag.Float64("ttft", 2.5, "TTFT SLA (s)")
	tpot := flag.Float64("tpot", 0.15, "TPOT SLA (s)")
	batch := flag.Int("batch", 32, "planner batch size Q")
	minTens := flag.Int("min-tens-decode", 0, "decode tensor-parallel floor (cross-server regime)")
	elephants := flag.Int("elephants", 0, "background elephant-flow lanes")
	autoscale := flag.Bool("autoscale", false, "enable decode-instance autoscaling")
	scalePolicy := flag.String("scale-policy", "backlog", "autoscaler policy: "+strings.Join(serving.ScalePolicyNames, " | "))
	seed := flag.Int64("seed", 1, "deterministic seed")
	out := flag.String("out", "", "write the run bundle (spans, metrics, decisions, alerts, perf; hstat-readable) to this directory")
	sloRules := flag.String("slo-rules", "default", "SLO alert rules: default (keyed off -ttft/-tpot) | off | <rules.json>")
	cli.ParseFlags("serve")

	// The system is looked up with the other enumerated flags, before any
	// work starts, so a typo fails fast instead of after planning.
	chosen, err := core.ByName(*system)
	if err != nil {
		usagef("%v", err)
	}
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
	if *minTens < 0 || *elephants < 0 {
		usagef("-min-tens-decode and -elephants must be >= 0, got %d and %d", *minTens, *elephants)
	}
	for _, sla := range []struct {
		flag string
		v    float64
	}{{"-ttft", *ttft}, {"-tpot", *tpot}} {
		if !(sla.v > 0) || math.IsInf(sla.v, 1) {
			usagef("%s must be a finite positive number of seconds, got %g", sla.flag, sla.v)
		}
	}
	if _, perr := serving.NewScalePolicy(*scalePolicy); perr != nil {
		usagef("%v", perr)
	}
	// The SLO rules are read here too, so a missing or malformed rules file
	// fails every run, not only a telemetered one. The default rule set keys
	// its burn-rate objectives off the workload's SLA flags.
	var rules []slo.Rule
	switch *sloRules {
	case "off":
	case "default":
		rules = slo.DefaultRules(*ttft, *tpot)
	default:
		rf, rerr := os.Open(*sloRules)
		if rerr != nil {
			usagef("slo rules: %v", rerr)
		}
		rules, rerr = slo.ParseRules(rf)
		rf.Close()
		if rerr != nil {
			usagef("slo rules %s: %v", *sloRules, rerr)
		}
	}
	if *tracePath == "" {
		usagef("-trace required (use cmd/tracegen to produce one)")
	}
	var trace *workload.Trace
	if *tracePath == "-" {
		trace, err = workload.Decode(os.Stdin)
	} else {
		f, ferr := os.Open(*tracePath)
		if ferr != nil {
			usagef("%v", ferr)
		}
		defer f.Close()
		trace, err = workload.Decode(f)
	}
	if err != nil {
		usagef("%v", err)
	}
	if len(trace.Requests) == 0 {
		usagef("empty trace")
	}

	rate := float64(len(trace.Requests)) / trace.Duration()
	pre, dec := planner.SplitPoolsByServer(g, g.NumServers()/2)
	sla := serving.SLA{TTFT: *ttft, TPOT: *tpot}
	in := planner.Inputs{
		Model:         cfg,
		Graph:         g,
		PrefillGPUs:   pre,
		DecodeGPUs:    dec,
		Workload:      trace.BatchStats(*batch),
		Lambda:        rate,
		SLA:           sla,
		MinTensDecode: *minTens,
		Seed:          *seed,
	}

	// Telemetry: a bundle arms the hub, and the trace streams into it. SLO
	// monitoring defaults on for every telemetered run, so the alert log is
	// meaningful without any extra configuration.
	var art *telemetry.Artifacts
	var sloCfg *slo.Config
	if *out != "" {
		art = &telemetry.Artifacts{Hub: telemetry.New(), Dir: *out, Status: os.Stdout}
		if err := art.Start(); err != nil {
			usagef("%v", err)
		}
		if *sloRules != "off" {
			sloCfg = &slo.Config{Rules: rules}
		}
	}

	runSystem(chosen, in, trace, art, runParams{
		sla: sla, autoscale: *autoscale, scalePolicy: *scalePolicy,
		elephants: *elephants, seed: *seed, slo: sloCfg,
	})

	if art != nil {
		if err := art.Finish(); err != nil {
			fatalf("%v", err)
		}
	}
}

// runParams carries the per-run knobs that are not planner inputs.
type runParams struct {
	sla         serving.SLA
	autoscale   bool
	scalePolicy string
	elephants   int
	seed        int64
	slo         *slo.Config
}

// runSystem plans, builds, and replays the trace through the system,
// printing its summary and rendering its documents once into the bundle.
// art is nil without telemetry.
func runSystem(s core.System, in planner.Inputs, trace *workload.Trace, art *telemetry.Artifacts, p runParams) {
	var opts serving.Options
	if p.autoscale {
		// Policies are stateful; build a fresh one for the run.
		pol, err := serving.NewScalePolicy(p.scalePolicy)
		if err != nil {
			fatalf("%v", err)
		}
		opts.Autoscale = &serving.AutoscaleConfig{InitialActive: 1, Policy: pol}
	}
	// The performance observatory: one sampler per telemetered run
	// (wall-clock state is run-scoped).
	var sampler *perf.Sampler
	if art != nil {
		opts.Telemetry = art.Hub
		opts.SLA = &p.sla
		opts.SLO = p.slo
		sampler = perf.NewSampler(0)
		opts.Perf = sampler
	}

	name := s.Name
	plan, err := s.Plan(in)
	if err != nil {
		fatalf("planning %s: %v", name, err)
	}
	sys, err := s.Build(in, plan, opts)
	if err != nil {
		fatalf("building %s: %v", name, err)
	}
	if p.elephants > 0 {
		sys.InjectElephants(p.elephants, 512<<20, trace.Duration()+120, p.seed+99)
	}

	res := sys.Run(trace)
	rate := float64(len(trace.Requests)) / trace.Duration()
	run := res.Summary(len(trace.Requests), p.sla)
	fmt.Printf("system=%s plan=%s trace=%s requests=%d rate=%.3g req/s\n",
		res.PolicyName, plan.Candidate, trace.Name, run.Requests, rate)
	fmt.Printf("served=%d in %.1fs simulated; SLA attainment=%.1f%%\n",
		run.Served, run.SimSeconds, run.Attainment*100)
	ttft, tpot := run.TTFT, run.TPOT
	fmt.Printf("TTFT: mean=%.3fs p50=%.3fs p90=%.3fs p99=%.3fs\n", ttft.Mean, ttft.P50, ttft.P90, ttft.P99)
	fmt.Printf("TPOT: mean=%.4fs p50=%.4fs p90=%.4fs p99=%.4fs\n", tpot.Mean, tpot.P50, tpot.P90, tpot.P99)
	fmt.Printf("comm: ring=%d ina-sync=%d ina-async=%d hetero=%d transfers=%d\n",
		res.Comm.RingOps, res.Comm.INASyncOps, res.Comm.INAAsyncOps, res.Comm.HeteroOps, res.Comm.Transfers)
	fmt.Printf("decode KV: mean=%.1f%% peak=%.1f%%; GPU-seconds=%.0f\n",
		res.MeanKVUtilization()*100, res.PeakKVUtilization()*100, res.ActiveGPUSeconds)
	if len(res.ScaleEvents) > 0 {
		fmt.Printf("autoscaler events:\n")
		for _, e := range res.ScaleEvents {
			fmt.Printf("  t=%8.2fs %-10s instance=%d active=%d\n", e.T, e.Action, e.ID, e.Active)
		}
	}
	if cp := res.CritPath; cp != nil && cp.Requests > 0 {
		fmt.Printf("critical path: ")
		first := true
		for _, e := range critpathSummary(cp) {
			if !first {
				fmt.Printf(" ")
			}
			fmt.Printf("%s=%.1f%%", e.stage, e.share*100)
			first = false
		}
		fmt.Printf(" (of %.1fs total e2e; hstat trace for the full breakdown)\n", cp.E2ESum())
	}
	if d := res.Decisions; d != nil && d.Collective+d.Scale > 0 {
		fmt.Printf("decisions: %s (hstat decisions for the full ledger)\n", d)
	}
	if al := res.Alerts; al != nil {
		fmt.Printf("alerts: %s (hstat alerts for the timeline)\n", al)
	}
	var report *perf.Report
	if sampler != nil {
		report = sampler.Report(name)
		fmt.Printf("perf: %.3g events/s, %.4g wall-seconds per sim-second; realloc=%.4gs self=%.1f%%\n",
			report.EventsPerSec, report.WallPerSim, report.Phases.ReallocSeconds, report.Phases.SelfFraction*100)
	}
	if art != nil {
		exportDocs(art, sys, report)
	}
}

// exportDocs renders each of the finished run's documents once, into its
// bundle file: the decision ledger, the SLO alert log while a monitor is
// armed, and the perf report.
func exportDocs(art *telemetry.Artifacts, sys *serving.System, report *perf.Report) {
	export := func(file string, write func(io.Writer) error) {
		if err := art.Export(file, write); err != nil {
			fatalf("export: %v", err)
		}
	}
	if led := sys.DecisionLedger(); led != nil {
		export(decisions.File, led.WriteJSON)
	}
	if mon := sys.SLOMonitor(); mon != nil {
		export(slo.File, mon.WriteLog)
	}
	export(perf.File, report.WriteJSON)
}

// cpEntry is one stage's share of the end-to-end critical path.
type cpEntry struct {
	stage string
	share float64
}

// critpathSummary returns the top three stages by E2E share, largest first
// (ties by stage name for a deterministic one-liner).
func critpathSummary(cp *critpath.Report) []cpEntry {
	total := cp.E2ESum()
	if total <= 0 {
		return nil
	}
	entries := make([]cpEntry, 0, len(cp.E2ETotal))
	for s, v := range cp.E2ETotal {
		entries = append(entries, cpEntry{stage: s, share: v / total})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].share != entries[j].share {
			return entries[i].share > entries[j].share
		}
		return entries[i].stage < entries[j].stage
	})
	if len(entries) > 3 {
		entries = entries[:3]
	}
	return entries
}

// usagef rejects a bad flag or input file: one line, exit status 2.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "serve: "+format+"\n", args...)
	os.Exit(2)
}

// fatalf reports a failure of the run itself: one line, exit status 1.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "serve: "+format+"\n", args...)
	os.Exit(1)
}
