// Command bench is HeroServe's benchmark: it replays four serving workloads
// through the simulator, each repetition in a fresh child process, and
// reports end-to-end metrics (simulated latencies and the host cost of the
// replay) from untraced runs and per-layer metrics from a traced run. See
// README.md for the workloads, the metrics and how to read a comparison.
//
//	bench -workload chat-stress -seed 3 -seconds 20 -trace 0   # one run, JSON last
//	bench -reps 5 -out base.json                               # every workload
//	bench -reps 5 -compare base.json                           # and a verdict table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// benchmarkPath is the benchmark's description, which holds the regression
// bounds. The program runs from the repository root.
const benchmarkPath = "BENCHMARK.json"

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "run one workload and print its result object as the last line")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "time to keep measuring one run, after its panel of realizations")
	traceMode := flag.Int("trace", 0, "1 runs the traced measurement and reports the per-layer metrics")
	reps := flag.Int("reps", 5, "runs per workload in a full set, interleaved across workloads")
	out := flag.String("out", "", "write the full set's runs to this JSON file")
	compare := flag.String("compare", "", "compare a fresh full set against this base set file")
	scale := flag.Float64("scale", 1, "trace length as a share of the benchmark size (for quick checks)")
	workdir := flag.String("workdir", ".bench_build", "directory for the traced run's span files")

	isChild := flag.Bool("child", false, "internal: replay one realization in this process, print its report")
	traced := flag.Bool("traced", false, "internal: arm the probes in a child")
	twin := flag.Bool("twin", false, "internal: flip telemetry in a traced child")
	spans := flag.String("spans", "", "internal: span file of a traced child")
	flag.Parse()

	if *isChild {
		return childMain(*name, *seed, *scale, *traced, *twin, *spans)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rn := &runner{exe: exe, scale: *scale, workdir: *workdir, log: os.Stderr, calibrate: calibrate}
	if *name != "" {
		return workloadMain(rn, *name, *seed, *seconds, *traceMode == 1)
	}
	return setMain(rn, *reps, *seed, *seconds, *out, *compare)
}

// childMain replays one realization and prints its report as JSON.
func childMain(name string, seed int64, scale float64, traced, twin bool, spans string) int {
	s, err := specByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	tel := s.telemetry != twin
	var r *rep
	if traced {
		r, err = s.traceRep(seed, scale, tel, spans)
	} else {
		r, _, _, err = s.execRep(seed, scale, tel, nil, nil)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", name, seed, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// workloadMain runs one workload, prints a human summary, and prints the
// result object as the last line of standard output. A failed or
// inconsistent run still prints its result, and exits 1.
func workloadMain(rn *runner, name string, seed int64, seconds float64, traced bool) int {
	s, err := specByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	table := endToEnd
	var o *outcome
	if traced {
		table = perLayer
		o, err = rn.trace(s, seed)
	} else {
		o, err = rn.measure(s, seed, seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res, err := report(o, table)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("workload %s seed %d: %d repetitions, digest %s\n", o.Workload, o.Seed, o.Reps, o.Digest)
	for _, m := range table {
		fmt.Printf("  %-36s %14.6g %s\n", m.Name, o.Metrics[m.Name], m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !o.Correct || o.Failed > 0 {
		return 1
	}
	return 0
}
