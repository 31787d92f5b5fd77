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
// Perfetto-loadable), run/metrics.prom and run/metrics.om (the final metrics
// as Prometheus text and as OpenMetrics), run/decisions.json (the
// counterfactual decision ledger), run/alerts.json (the SLO alert log, while a
// monitor is armed) and run/perf.json (the simulator's self-profiling
// report). `hstat <kind> run/` reads any of them.
//
// Daemon mode keeps a live observability plane up while the simulation runs
// (and after it finishes, until interrupted): /metrics serves the Prometheus
// exposition, /healthz liveness (degraded while SLO alerts fire), /runs the
// completed-run summaries as JSON, /decisions the counterfactual decision
// ledger, /alerts the SLO alert log, /perf the simulator's self-profiling
// report, and /trace the current trace snapshot.
// With -daemon, -system accepts a comma-separated list replayed sequentially
// against the same trace:
//
//	serve -trace trace.json -daemon -listen :9090 -system heroserve,distserve
//	curl localhost:9090/metrics
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"heroserve/internal/baselines"
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

// systems are the allowed -system values, validated with the other
// enumerated flags before any work starts, so a typo fails fast instead of
// after trace parsing and planning.
var systems = map[string]bool{"heroserve": true, "distserve": true, "ds-atp": true, "ds-switchml": true}

func main() {
	tracePath := flag.String("trace", "", "JSON trace file ('-' for stdin)")
	system := flag.String("system", "heroserve", "heroserve | distserve | ds-atp | ds-switchml (comma list with -daemon)")
	topo := flag.String("topology", "testbed", "testbed | pod2 | pod8")
	servers := flag.Int("servers", 12, "pod server count")
	modelName := flag.String("model", "opt-66b", "opt-13b | opt-66b | opt-175b")
	ttft := flag.Float64("ttft", 2.5, "TTFT SLA (s)")
	tpot := flag.Float64("tpot", 0.15, "TPOT SLA (s)")
	batch := flag.Int("batch", 32, "planner batch size Q")
	minTens := flag.Int("min-tens-decode", 0, "decode tensor-parallel floor (cross-server regime)")
	elephants := flag.Int("elephants", 0, "background elephant-flow lanes")
	autoscale := flag.Bool("autoscale", false, "enable decode-instance autoscaling")
	scalePolicy := flag.String("scale-policy", "backlog", "autoscaler policy: backlog | occupancy | kv-headroom | hybrid-slo | alert-aware | adaptive")
	seed := flag.Int64("seed", 1, "deterministic seed")
	out := flag.String("out", "", "write the run bundle (spans, metrics, decisions, alerts, perf; hstat-readable) to this directory")
	sloRules := flag.String("slo-rules", "default", "SLO alert rules: default (keyed off -ttft/-tpot) | off | <rules.json>")
	maxRuns := flag.Int("max-runs", 0, "daemon: retain only the newest N completed runs (0 = unbounded)")
	maxDecisions := flag.Int("max-decisions", 0, "retain only the newest N decision-ledger records per kind (0 = unbounded)")
	maxAlerts := flag.Int("max-alerts", 0, "retain only the newest N resolved alerts (0 = unbounded)")
	pushURL := flag.String("push-url", "", "POST metrics snapshots to this endpoint (pushgateway path layout appended unless present)")
	pushEvery := flag.Float64("push-every", 15, "metrics push cadence in simulated seconds (with -push-url)")
	daemon := flag.Bool("daemon", false, "serve /metrics /healthz /runs /trace over HTTP and stay up after the run")
	listen := flag.String("listen", ":9090", "daemon listen address")
	publishEvery := flag.Float64("publish-every", 5, "daemon metrics-snapshot cadence in simulated seconds")
	pprofFlag := flag.Bool("pprof", false, "daemon: expose net/http/pprof under /debug/pprof/ (off by default)")
	flag.Parse()

	sysNames := strings.Split(*system, ",")
	if len(sysNames) > 1 && !*daemon {
		usagef("comma-separated -system requires -daemon")
	}
	for _, name := range sysNames {
		if !systems[name] {
			usagef("unknown system %q (allowed: distserve | ds-atp | ds-switchml | heroserve)", name)
		}
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
	if *daemon && *publishEvery <= 0 {
		usagef("-publish-every must be positive")
	}
	if *pushURL != "" && *pushEvery <= 0 {
		usagef("-push-every must be positive")
	}
	if _, perr := serving.NewScalePolicy(*scalePolicy); perr != nil {
		usagef("%v", perr)
	}
	if *maxRuns < 0 || *maxDecisions < 0 || *maxAlerts < 0 {
		usagef("retention caps must be >= 0")
	}
	if *pprofFlag && !*daemon {
		usagef("-pprof requires -daemon (it mounts on the daemon mux)")
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

	// Telemetry: a bundle, a daemon or a push target arms the hub. The trace
	// streams into the bundle if there is one, else into the daemon's /trace
	// sink, else nowhere.
	var hub *telemetry.Hub
	if *out != "" || *daemon || *pushURL != "" {
		hub = telemetry.New()
	}
	// SLO monitoring defaults on for every telemetered run: the default rule
	// set keys its burn-rate objectives off the workload's SLA flags, so the
	// alert log is meaningful without any extra configuration.
	var sloCfg *slo.Config
	if hub != nil && *sloRules != "off" {
		var rules []slo.Rule
		if *sloRules == "default" {
			rules = slo.DefaultRules(*ttft, *tpot)
		} else {
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
		sloCfg = &slo.Config{Rules: rules, MaxResolved: *maxAlerts}
	}
	var pusher *telemetry.Pusher
	if *pushURL != "" {
		var perr error
		pusher, perr = telemetry.NewPusher(*pushURL, "heroserve", nil)
		if perr != nil {
			fatalf("%v", perr)
		}
		fmt.Printf("pushing metrics to %s every %gs (simulated)\n", pusher.URL(), *pushEvery)
	}
	var srv *telemetry.Server
	if *daemon {
		srv = telemetry.NewServer()
		srv.SetMaxRuns(*maxRuns)
		decisions.InstallDecisions(srv)
		slo.InstallAlerts(srv)
		perf.InstallPerf(srv)
		if *pprofFlag {
			perf.InstallPprof(srv)
		}
	}
	var art *telemetry.Artifacts
	if hub != nil {
		art = &telemetry.Artifacts{Hub: hub, Server: srv, Dir: *out, Status: os.Stdout}
		addr, aerr := art.Start(*listen)
		if aerr != nil {
			usagef("%v", aerr)
		}
		if addr != nil {
			fmt.Printf("daemon: serving %s on %s\n", strings.Join(srv.Routes(), " "), addr)
		}
	}

	var push *pushState
	if pusher != nil {
		push = &pushState{pusher: pusher, every: *pushEvery}
		// Pre-register the failure counter so a clean run still exports the
		// family at 0 and scrapes can rate() it from the start.
		hub.Metrics.Counter("telemetry_push_failures_total",
			"Metrics push attempts dropped after exhausting retries.", nil)
	}
	for _, name := range sysNames {
		runSystem(name, in, trace, art, runParams{
			sla: sla, autoscale: *autoscale, scalePolicy: *scalePolicy,
			elephants: *elephants, seed: *seed, publishEvery: *publishEvery,
			slo: sloCfg, ledgerCap: *maxDecisions, push: push,
		})
	}
	if pusher != nil {
		pusher.Close()
		// The push goroutine has exited: the failure count is final, so the
		// exported expositions below carry the true total.
		push.settle(hub)
		fmt.Printf("pushed %d metric snapshots (%d failed)\n", pusher.Pushed(), pusher.Failures())
	}

	if art != nil {
		if err := art.Finish(); err != nil {
			fatalf("%v", err)
		}
	}

	if *daemon {
		// Catch the signal before announcing it is awaited, so a caller
		// that interrupts on this line stops the daemon cleanly.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		fmt.Println("daemon: runs complete; serving until interrupted (Ctrl-C)")
		<-sig
	}
}

// runParams carries the per-run knobs that are not planner inputs.
type runParams struct {
	sla          serving.SLA
	autoscale    bool
	scalePolicy  string
	elephants    int
	seed         int64
	publishEvery float64
	slo          *slo.Config
	ledgerCap    int
	push         *pushState
}

// pushState carries the metrics pusher plus the failure count already
// mirrored into the telemetry_push_failures_total counter, across runs.
type pushState struct {
	pusher *telemetry.Pusher
	every  float64
	synced int64
}

// sync renders the registry, offers it to the push goroutine, and mirrors
// any new failures into the registry counter. Runs on the sim goroutine.
func (ps *pushState) sync(hub *telemetry.Hub) {
	var buf bytes.Buffer
	if err := hub.Metrics.WriteProm(&buf); err == nil {
		ps.pusher.Offer(buf.Bytes())
	}
	ps.settle(hub)
}

// settle mirrors failures accumulated on the push goroutine into the
// telemetry_push_failures_total counter. Called at sim-goroutine safe points
// and once more after Close (when the count is final) so the exported
// exposition reflects every drop.
func (ps *pushState) settle(hub *telemetry.Hub) {
	if f := ps.pusher.Failures(); f > ps.synced {
		hub.Metrics.Counter("telemetry_push_failures_total",
			"Metrics push attempts dropped after exhausting retries.", nil).
			Add(float64(f - ps.synced))
		ps.synced = f
	}
}

// runSystem plans, builds, and replays the trace through one system,
// printing its summary and writing its documents into the bundle. With a
// daemon server attached it also schedules periodic sim-time snapshot
// publications and records the run for /runs. art is nil without telemetry.
func runSystem(name string, in planner.Inputs, trace *workload.Trace, art *telemetry.Artifacts, p runParams) {
	var opts serving.Options
	if p.autoscale {
		// Policies are stateful; build a fresh one per system run.
		pol, err := serving.NewScalePolicy(p.scalePolicy)
		if err != nil {
			fatalf("%v", err)
		}
		opts.Autoscale = &serving.AutoscaleConfig{InitialActive: 1, Policy: pol}
	}
	var hub *telemetry.Hub
	var srv *telemetry.Server
	// The performance observatory: one sampler per run (wall-clock state is
	// run-scoped), armed whenever its output has somewhere to go.
	var sampler *perf.Sampler
	if art != nil {
		hub, srv = art.Hub, art.Server
		opts.Telemetry = hub
		opts.SLA = &p.sla
		opts.SLO = p.slo
		opts.LedgerCap = p.ledgerCap
		if art.Dir != "" || srv != nil {
			sampler = perf.NewSampler(0)
			opts.Perf = sampler
		}
	}

	var sys *serving.System
	var plan *planner.Plan
	var err error
	switch name {
	case "heroserve":
		sys, plan, _, err = core.NewSystem(in, nil, opts)
	case "distserve":
		sys, plan, err = baselines.NewSystem(baselines.DistServe, in, opts)
	case "ds-atp":
		sys, plan, err = baselines.NewSystem(baselines.DSATP, in, opts)
	case "ds-switchml":
		sys, plan, err = baselines.NewSystem(baselines.DSSwitchML, in, opts)
	}
	if err != nil {
		fatalf("planning %s: %v", name, err)
	}
	if p.elephants > 0 {
		sys.InjectElephants(p.elephants, 512<<20, trace.Duration()+120, p.seed+99)
	}
	if srv != nil {
		// Periodic snapshots ride the event loop itself: callbacks run on the
		// simulation goroutine, so rendering the registry there is race-free,
		// and scrapers see fresh numbers while the run is still in flight.
		observeEvery(sys, p.publishEvery, func() {
			srv.PublishHub(hub)
			publishDocs(srv, sys, sampler, name)
		})
	}
	if p.push != nil {
		// Metric pushes ride the event loop the same way; the POST itself
		// happens on the pusher's own goroutine (latest-wins mailbox), so a
		// slow endpoint cannot stall the simulation.
		observeEvery(sys, p.push.every, func() { p.push.sync(hub) })
	}

	res := sys.Run(trace)
	rate := float64(len(trace.Requests)) / trace.Duration()
	run := res.Summary(name, trace.Name, len(trace.Requests), p.sla)
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
	if sampler != nil {
		r := sampler.Report(name)
		fmt.Printf("perf: %.3g events/s, %.4g wall-seconds per sim-second; realloc=%.4gs self=%.1f%%\n",
			r.EventsPerSec, r.WallPerSim, r.Phases.ReallocSeconds, r.Phases.SelfFraction*100)
	}
	if art != nil {
		for _, d := range runDocs(sys, sampler, name) {
			if err := art.Export(d.file, d.write); err != nil {
				fatalf("export: %v", err)
			}
		}
	}
	if p.push != nil {
		p.push.sync(hub)
	}

	if srv != nil {
		// Publish before AddRun so the run's /runs/diff snapshot includes its
		// own final metrics.
		if err := srv.PublishHub(hub); err != nil {
			fmt.Fprintf(os.Stderr, "serve: daemon publish: %v\n", err)
		}
		publishDocs(srv, sys, sampler, name)
		evicted := srv.AddRun(run)
		if evicted > 0 {
			hub.Metrics.Counter("telemetry_evictions_total",
				"Telemetry records dropped by retention caps, by kind.",
				[]string{"kind"}, "run").Add(float64(evicted))
		}
	}
}

// observeEvery runs observe every interval seconds of sim-time while the run
// has work queued. The ticks are daemon events, like the SLO monitor's: they
// never keep a finished run alive, so observing a run cannot lengthen it.
func observeEvery(sys *serving.System, every float64, observe func()) {
	eng := sys.Engine()
	var tick func()
	tick = func() {
		observe()
		if eng.PendingWork() > 0 {
			eng.AfterDaemon(every, tick)
		}
	}
	eng.AfterDaemon(every, tick)
}

// runDoc is one per-run document: the daemon route that serves it, its file
// in the -out bundle, and its writer.
type runDoc struct {
	route, file string
	write       func(io.Writer) error
}

// runDocs lists the run's documents: the decision ledger, the SLO alert log
// while a monitor is armed, and the perf report while the sampler is. The
// same list feeds the daemon and the bundle. Each call renders the run as it
// stands, so a mid-run call lists live snapshots.
func runDocs(sys *serving.System, sampler *perf.Sampler, system string) []runDoc {
	var docs []runDoc
	if led := sys.DecisionLedger(); led != nil {
		docs = append(docs, runDoc{decisions.Route, decisions.File, led.WriteJSON})
	}
	if mon := sys.SLOMonitor(); mon != nil {
		docs = append(docs, runDoc{slo.Route, slo.File, mon.WriteLog})
	}
	if sampler != nil {
		docs = append(docs, runDoc{perf.Route, perf.File, sampler.Report(system).WriteJSON})
	}
	return docs
}

// publishDocs publishes the run's documents on their daemon routes, plus the
// /healthz firing roll-up. Like PublishHub it runs on the simulation
// goroutine; mid-run calls publish live in-flight snapshots.
func publishDocs(srv *telemetry.Server, sys *serving.System, sampler *perf.Sampler, system string) {
	for _, d := range runDocs(sys, sampler, system) {
		var buf bytes.Buffer
		if err := d.write(&buf); err != nil {
			fmt.Fprintf(os.Stderr, "serve: %s publish: %v\n", d.route, err)
			continue
		}
		srv.Publish(d.route, buf.Bytes())
	}
	if mon := sys.SLOMonitor(); mon != nil {
		feed := mon.Feed()
		worst := ""
		if w, ok := feed.Worst(); ok {
			worst = w.String()
		}
		srv.SetAlertRollup(len(feed.Active()), worst)
	}
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
