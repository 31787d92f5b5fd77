// Command hstat reads the telemetry artifacts cmd/serve exports and the
// daemon serves: span traces (-trace-out, /trace), SLO alert logs
// (-alerts-out, /alerts), decision ledgers (-decisions-out, /decisions) and
// perf reports (-perf-out, /perf).
//
// Usage:
//
//	hstat trace [-top N] [-json] spans.json        # critical-path breakdown + slowest requests
//	hstat alerts [-summary|-json|-tsv] [-rule r] [-state s] run.alerts.json   # lifecycle timeline
//	hstat decisions [-regret|-json|-tsv] run.decisions.json   # counterfactual regret report
//	hstat perf [-json] perf.json                   # where the simulator's wall-clock went
//	hstat <kind> -diff before.json after.json      # compare two artifacts of one kind
//
// A file argument of "-" reads standard input. Bad input (an unknown kind, a
// wrong file count, a missing or malformed file) prints one "hstat: ..." line
// and exits 2. Output is deterministic for deterministic artifacts, so the
// golden gate pins the alerts and decisions -tsv renderings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"heroserve/internal/telemetry/critpath"
	"heroserve/internal/telemetry/decisions"
	"heroserve/internal/telemetry/perf"
	"heroserve/internal/telemetry/slo"
)

// opts holds the view flags; each kind reads the ones it registers.
type opts struct {
	json, tsv, summary, regret bool
	top                        int
	rule, state                string
}

// A kind is one artifact type: its view flags beyond -diff and -json, a
// loader for one file (returning a warning when the artifact looks empty),
// and renderers for one artifact and for a pair.
type kind struct {
	usage string
	flags func(fs *flag.FlagSet, o *opts)
	load  func(r io.Reader, o *opts) (artifact any, warning string, err error)
	view  func(w io.Writer, a any, o *opts) error
	diff  func(w io.Writer, a, b any) error
}

var kinds = map[string]kind{
	"trace": {
		usage: "[-top N] [-json]",
		flags: func(fs *flag.FlagSet, o *opts) {
			fs.IntVar(&o.top, "top", 10, "slowest-requests table size")
		},
		load: func(r io.Reader, o *opts) (any, string, error) {
			a, err := critpath.FromTrace(r)
			if err != nil {
				return nil, "", err
			}
			rep := a.Report(o.top)
			if rep.Requests == 0 {
				return rep, "has no finalized request spans (was the run traced with telemetry on?)", nil
			}
			return rep, "", nil
		},
		view: func(w io.Writer, a any, o *opts) error {
			rep := a.(*critpath.Report)
			if o.json {
				return writeIndented(w, rep)
			}
			return rep.Fprint(w)
		},
		diff: func(w io.Writer, a, b any) error {
			return critpath.FprintDiff(w, a.(*critpath.Report), b.(*critpath.Report))
		},
	},
	"alerts": {
		usage: "[-summary|-json|-tsv] [-rule r] [-state s]",
		flags: func(fs *flag.FlagSet, o *opts) {
			fs.BoolVar(&o.summary, "summary", false, "print the per-rule roll-up instead of the timeline")
			fs.BoolVar(&o.tsv, "tsv", false, "emit the deterministic alert TSV (the golden-gate pin)")
			fs.StringVar(&o.rule, "rule", "", "keep only this rule's alerts")
			fs.StringVar(&o.state, "state", "", "keep only alerts in this state: pending | firing | resolved")
		},
		load: func(r io.Reader, _ *opts) (any, string, error) {
			log, err := slo.ReadLog(r)
			if err != nil {
				return nil, "", err
			}
			if len(log.Meta.Rules) == 0 {
				return log, "holds no armed rules (was the run monitored?)", nil
			}
			return log, "", nil
		},
		view: func(w io.Writer, a any, o *opts) error {
			log := a.(*slo.Log)
			if o.rule != "" || o.state != "" {
				log = log.Filter(o.state, o.rule, 0, 0)
			}
			switch {
			case o.tsv:
				return log.WriteTSV(w)
			case o.json:
				return writeIndented(w, log.Summarize())
			case o.summary:
				return log.FprintSummary(w)
			}
			return log.FprintTimeline(w)
		},
		diff: func(w io.Writer, a, b any) error {
			return slo.FprintDiff(w, a.(*slo.Log), b.(*slo.Log))
		},
	},
	"decisions": {
		usage: "[-regret|-json|-tsv]",
		flags: func(fs *flag.FlagSet, o *opts) {
			fs.BoolVar(&o.regret, "regret", false, "print only the regret rankings (schemes + shadow laws)")
			fs.BoolVar(&o.tsv, "tsv", false, "emit the deterministic summary TSV (the golden-gate pin)")
		},
		load: func(r io.Reader, _ *opts) (any, string, error) {
			led, err := decisions.ReadJSON(r)
			if err != nil {
				return nil, "", err
			}
			if led.Len() == 0 {
				return led, "holds no decision records (was the run telemetered?)", nil
			}
			return led, "", nil
		},
		view: func(w io.Writer, a any, o *opts) error {
			led := a.(*decisions.Ledger)
			switch {
			case o.tsv:
				return led.Summarize().WriteTSV(w)
			case o.json:
				return writeIndented(w, struct {
					Summary       *decisions.Summary     `json:"summary"`
					ShadowRanking []decisions.ShadowRank `json:"shadow_ranking,omitempty"`
				}{led.Summarize(), led.ShadowRanking()})
			case o.regret:
				return led.FprintRegret(w)
			}
			return led.Fprint(w)
		},
		diff: func(w io.Writer, a, b any) error {
			return decisions.FprintDiff(w, a.(*decisions.Ledger).Summarize(), b.(*decisions.Ledger).Summarize())
		},
	},
	"perf": {
		usage: "[-json]",
		load: func(r io.Reader, _ *opts) (any, string, error) {
			data, err := io.ReadAll(r)
			if err != nil {
				return nil, "", err
			}
			rep, err := perf.ReadReport(data)
			return rep, "", err
		},
		view: func(w io.Writer, a any, o *opts) error {
			rep := a.(*perf.Report)
			if o.json {
				return rep.WriteJSON(w)
			}
			return rep.Fprint(w)
		},
		diff: func(w io.Writer, a, b any) error {
			return perf.FprintDiff(w, a.(*perf.Report), b.(*perf.Report))
		},
	},
}

func main() {
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(os.Args) < 2 {
		fatalf("usage: hstat <%s> [flags] file | hstat <kind> -diff a b", strings.Join(names, "|"))
	}
	name := os.Args[1]
	k, ok := kinds[name]
	if !ok {
		fatalf("unknown kind %q (want one of: %s)", name, strings.Join(names, " "))
	}
	usage := fmt.Sprintf("usage: hstat %s %s file | hstat %s -diff a b", name, k.usage, name)

	var o opts
	fs := flag.NewFlagSet("hstat "+name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	diff := fs.Bool("diff", false, "compare two artifacts (takes two files)")
	fs.BoolVar(&o.json, "json", false, "emit JSON instead of text")
	if k.flags != nil {
		k.flags(fs, &o)
	}
	if err := fs.Parse(os.Args[2:]); err != nil {
		fatalf("%v; %s", err, usage)
	}
	files := fs.Args()

	var err error
	switch {
	case *diff && len(files) == 2:
		err = k.diff(os.Stdout, load(k, files[0], &o), load(k, files[1], &o))
	case !*diff && len(files) == 1:
		err = k.view(os.Stdout, load(k, files[0], &o), &o)
	default:
		fatalf("%s", usage)
	}
	if err != nil {
		fatalf("%v", err)
	}
}

// load reads one artifact file ("-" for stdin) with the kind's loader.
func load(k kind, path string, o *opts) any {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		r = f
	}
	a, warning, err := k.load(r, o)
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	if warning != "" {
		fmt.Fprintf(os.Stderr, "hstat: warning: %s %s\n", path, warning)
	}
	return a
}

// writeIndented emits v as two-space-indented JSON.
func writeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hstat: "+format+"\n", args...)
	os.Exit(2)
}
