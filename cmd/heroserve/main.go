// Command heroserve regenerates the paper's evaluation artifacts: every
// figure of §V plus the planner telemetry, printed as text tables.
//
// Usage:
//
//	heroserve -exp fig7              # one experiment
//	heroserve -exp all -scale full   # everything, paper-sized sweeps
//	heroserve -exp faults -out run/  # run bundle across all serving runs
//	heroserve -list                  # enumerate experiment ids
//
// -out writes the run bundle: run/spans.json and run/metrics.prom, the same
// layout cmd/serve writes minus its per-run documents. The spans stream to disk as they are recorded, so `-exp all
// -scale full` sweeps never buffer the whole trace in RAM. The report stays
// alone on stdout; the export lines go to stderr.
//
// The experiments that run serving simulations report to the telemetry:
// fig7, fig8, fig10, faults and ablations (one run per variant). ext-scale
// does not, since it scores each run from that run's private registry; the
// other experiments run no serving simulation. Arming telemetry leaves the
// report unchanged: HeroServe's online scheduler reads nothing from the
// telemetry hub, so an armed run prints what the plain run prints.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"heroserve/internal/cli"
	"heroserve/internal/experiments"
	"heroserve/internal/telemetry"
)

// runner is one experiment's entry point.
type runner func(experiments.Env) (*experiments.Report, error)

var registry = []struct {
	id   string
	desc string
	run  runner
}{
	{"fig1", "prefill cost breakdown, LLaMA-3-70B TP=4 over 100GbE", experiments.Fig1},
	{"fig2", "homogeneous vs heterogeneous INA aggregation delay", experiments.Fig2},
	{"fig7", "testbed scalability and latency, OPT-66B", experiments.Fig7},
	{"fig8", "pod-scale scalability, OPT-175B, 2tracks/8tracks", experiments.Fig8},
	{"fig9", "in-network aggregation throughput vs message size", experiments.Fig9},
	{"fig10", "KV-cache memory efficiency over time", experiments.Fig10},
	{"alg1", "offline planner search telemetry", experiments.Alg1},
	{"ablations", "online-scheduler design-choice ablations", experiments.Ablations},
	{"ext-pcie", "future work: NUMA-aware PCIe pre-reduction", experiments.ExtPCIe},
	{"ext-scale", "future work: rapid decode-instance scaling in/out", experiments.ExtScale},
	{"crossover", "scheme crossover study: ring vs INA vs hetero by size", experiments.Crossover},
	{"faults", "fault resilience: SLA attainment under injected faults", experiments.FaultsExperiment},
}

func main() {
	exp := flag.String("exp", "", "experiment id (or 'all')")
	format := flag.String("format", "text", "output format: text | csv | json")
	scaleFlag := flag.String("scale", "quick", "sweep sizing: quick | full")
	seed := flag.Int64("seed", 1, "deterministic seed")
	list := flag.Bool("list", false, "list experiment ids")
	out := flag.String("out", "", "write the run bundle (spans and metrics across all runs) to this directory")
	cli.ParseFlags("heroserve")

	if *list {
		for _, e := range registry {
			fmt.Printf("%-6s %s\n", e.id, e.desc)
		}
		return
	}
	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "heroserve: unknown scale %q (quick|full)\n", *scaleFlag)
		os.Exit(2)
	}
	switch *format {
	case "text", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "heroserve: unknown format %q (text|csv|json)\n", *format)
		os.Exit(2)
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "heroserve: -exp required (use -list to enumerate; 'all' runs everything)")
		os.Exit(2)
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = nil
		for _, e := range registry {
			ids = append(ids, e.id)
		}
	}
	// Resolve every id before running anything, so a typo in a comma list
	// fails fast instead of after hours of earlier experiments.
	runs := make([]runner, len(ids))
	for i, id := range ids {
		for _, e := range registry {
			if e.id == id {
				runs[i] = e.run
				break
			}
		}
		if runs[i] == nil {
			var known []string
			for _, e := range registry {
				known = append(known, e.id)
			}
			fmt.Fprintf(os.Stderr, "heroserve: unknown experiment %q (available: %s)\n", id, strings.Join(known, " "))
			os.Exit(2)
		}
	}

	env := experiments.Env{Scale: scale, Seed: *seed}
	var art *telemetry.Artifacts
	if *out != "" {
		env.Hub = telemetry.New()
		art = &telemetry.Artifacts{Hub: env.Hub, Dir: *out, Status: os.Stderr}
		if err := art.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "heroserve: %v\n", err)
			os.Exit(2)
		}
	}

	for i, id := range ids {
		rep, err := runs[i](env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "heroserve: %s: %v\n", id, err)
			os.Exit(1)
		}
		switch *format {
		case "text":
			rep.Fprint(os.Stdout)
		case "csv":
			if err := rep.FprintCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "heroserve: csv: %v\n", err)
				os.Exit(1)
			}
		case "json":
			if err := rep.FprintJSON(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "heroserve: json: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if art != nil {
		if err := art.Finish(); err != nil {
			fmt.Fprintf(os.Stderr, "heroserve: %v\n", err)
			os.Exit(1)
		}
	}
}
