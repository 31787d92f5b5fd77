// Command heroserve regenerates the paper's evaluation artifacts: every
// figure of §V plus the planner telemetry, printed as text tables.
//
// Usage:
//
//	heroserve -exp fig7              # one experiment
//	heroserve -exp all -scale full   # everything, paper-sized sweeps
//	heroserve -exp faults -trace-out spans.json -metrics-out metrics.prom
//	heroserve -exp all -listen :9090 # live /metrics + /runs during the sweep
//	heroserve -list                  # enumerate experiment ids
//
// With -trace-out the tracer streams events to disk incrementally (the
// StreamTracer backend), so `-exp all -scale full` sweeps no longer buffer
// the whole trace in RAM. With -listen, /metrics, /healthz, /runs, and
// /trace are served over HTTP and refreshed after every completed serving
// run, so scrapers can watch a multi-hour sweep live; the process still
// exits when the sweep finishes.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"

	"heroserve/internal/experiments"
	"heroserve/internal/serving"
	"heroserve/internal/stats"
	"heroserve/internal/telemetry"
)

type runner func(experiments.Scale, int64) (*experiments.Report, error)

var registry = []struct {
	id   string
	desc string
	run  runner
}{
	{"fig1", "prefill cost breakdown, LLaMA-3-70B TP=4 over 100GbE", func(_ experiments.Scale, _ int64) (*experiments.Report, error) {
		return experiments.Fig1(), nil
	}},
	{"fig2", "homogeneous vs heterogeneous INA aggregation delay", func(_ experiments.Scale, _ int64) (*experiments.Report, error) {
		return experiments.Fig2(), nil
	}},
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
	traceOut := flag.String("trace-out", "", "stream Chrome trace-event JSON across all runs here")
	metricsOut := flag.String("metrics-out", "", "write text-format metrics across all runs here")
	metricsFormat := flag.String("metrics-format", "prom", "metrics exposition format: prom | openmetrics")
	listen := flag.String("listen", "", "serve live /metrics /healthz /runs /trace on this address during the sweep")
	flag.Parse()

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
	switch *metricsFormat {
	case "prom", "openmetrics":
	default:
		fmt.Fprintf(os.Stderr, "heroserve: unknown metrics format %q (prom|openmetrics)\n", *metricsFormat)
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

	var hub *telemetry.Hub
	if *traceOut != "" || *metricsOut != "" || *listen != "" {
		hub = telemetry.New()
		experiments.SetTelemetry(hub)
	}
	var srv *telemetry.Server
	if *listen != "" {
		srv = telemetry.NewServer()
	}
	var traceFile *os.File
	switch {
	case *traceOut != "":
		var err error
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "heroserve: trace export: %v\n", err)
			os.Exit(1)
		}
		if err := hub.Trace.StreamTo(traceFile); err != nil {
			fmt.Fprintf(os.Stderr, "heroserve: trace export: %v\n", err)
			os.Exit(1)
		}
		if srv != nil {
			srv.SetTraceFile(*traceOut)
		}
	case srv != nil:
		if err := hub.Trace.StreamTo(srv.TraceSink()); err != nil {
			fmt.Fprintf(os.Stderr, "heroserve: trace: %v\n", err)
			os.Exit(1)
		}
	}
	if srv != nil {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "heroserve: listen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("serving %s on %s\n", strings.Join(srv.Routes(), " "), ln.Addr())
		go func() {
			if serr := http.Serve(ln, srv); serr != nil {
				fmt.Fprintf(os.Stderr, "heroserve: http: %v\n", serr)
			}
		}()
		// The observer runs on the sweep goroutine after each serving run, so
		// publishing the hub from it is race-free (see telemetry.Server).
		experiments.SetRunObserver(func(kind experiments.SystemKind, res *serving.Results, sla serving.SLA) {
			ttfts := stats.Summarize(res.TTFTs())
			tpots := stats.Summarize(res.TPOTs())
			// Publish before AddRun so the run's /runs/diff snapshot includes
			// its own final metrics.
			if err := srv.PublishHub(hub); err != nil {
				fmt.Fprintf(os.Stderr, "heroserve: publish: %v\n", err)
			}
			srv.AddRun(telemetry.RunSummary{
				System:     kind.String(),
				Policy:     res.PolicyName,
				Trace:      "experiment",
				Requests:   len(res.Requests),
				Served:     res.Served,
				SimSeconds: res.Duration,
				Attainment: res.Attainment(sla),
				TTFT:       telemetry.Latency{Mean: ttfts.Mean, P50: ttfts.P50, P90: ttfts.P90, P99: ttfts.P99},
				TPOT:       telemetry.Latency{Mean: tpots.Mean, P50: tpots.P50, P90: tpots.P90, P99: tpots.P99},
			})
		})
	}

	for i, id := range ids {
		rep, err := runs[i](scale, *seed)
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

	if *traceOut != "" {
		if err := hub.Trace.CloseStream(); err != nil {
			fmt.Fprintf(os.Stderr, "heroserve: trace export: %v\n", err)
			os.Exit(1)
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "heroserve: trace export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("streamed %d trace events to %s\n", hub.Trace.Len(), *traceOut)
	}
	if *metricsOut != "" {
		write := hub.Metrics.WriteProm
		if *metricsFormat == "openmetrics" {
			write = hub.Metrics.WriteOpenMetrics
		}
		if err := exportFile(*metricsOut, write); err != nil {
			fmt.Fprintf(os.Stderr, "heroserve: metrics export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote metrics (%s) to %s\n", *metricsFormat, *metricsOut)
	}
}

// exportFile writes one telemetry artifact via its writer function.
func exportFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
