// Command tracegen emits a synthetic ShareGPT-like (chatbot) or
// LongBench-like (summarization) request trace as JSON on stdout, with
// Poisson arrival timestamps — the workload substitution documented in
// DESIGN.md.
//
// Usage:
//
//	tracegen -kind chatbot -n 1000 -rate 5 > chatbot.json
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"heroserve/internal/cli"
	"heroserve/internal/workload"
)

func main() {
	kindFlag := flag.String("kind", "chatbot", "chatbot | summarization")
	n := flag.Int("n", 100, "request count")
	rate := flag.Float64("rate", 1, "Poisson arrival rate (req/s)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	stats := flag.Bool("stats", false, "print summary statistics to stderr")
	cli.ParseFlags("tracegen")

	if *n < 1 {
		fmt.Fprintf(os.Stderr, "tracegen: -n must be at least 1, got %d\n", *n)
		os.Exit(2)
	}
	if !(*rate > 0) || math.IsInf(*rate, 1) {
		fmt.Fprintf(os.Stderr, "tracegen: -rate must be a finite positive req/s, got %g\n", *rate)
		os.Exit(2)
	}

	var kind workload.Kind
	switch *kindFlag {
	case "chatbot":
		kind = workload.Chatbot
	case "summarization":
		kind = workload.Summarization
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown kind %q\n", *kindFlag)
		os.Exit(2)
	}
	trace := workload.NewGenerator(kind, *seed).Generate(*n, *rate)
	if *stats {
		s := trace.BatchStats(len(trace.Requests))
		fmt.Fprintf(os.Stderr, "requests=%d duration=%.1fs total_in=%d total_out=%d mean_in=%.1f mean_out=%.1f\n",
			len(trace.Requests), trace.Duration(), s.Kin, s.Kout,
			float64(s.Kin)/float64(len(trace.Requests)), float64(s.Kout)/float64(len(trace.Requests)))
	}
	if err := trace.Encode(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}
