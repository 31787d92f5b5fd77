// Command hstat reads the telemetry artifacts of a run bundle (serve -out)
// and the daemon's documents: span traces (spans.json, /trace), SLO alert
// logs (alerts.json, /alerts), decision ledgers (decisions.json, /decisions)
// and perf reports (perf.json, /perf).
//
// Usage:
//
//	hstat trace [-top N] [-json] run/              # critical-path breakdown + slowest requests
//	hstat alerts [-summary|-json|-tsv] [-rule r] [-state s] run/   # lifecycle timeline
//	hstat decisions [-regret|-json|-tsv] run/      # counterfactual regret report
//	hstat perf [-json] run/                        # where the simulator's wall-clock went
//	hstat <kind> -diff [-json] before/ after/      # compare two artifacts of one kind
//	hstat diff [-json] before/ after/              # compare every kind two bundles hold
//
// Each argument is a bundle directory, whose file of that kind is read, or a
// file; "-" reads standard input. Every diff reduces each artifact to named
// series and joins them with telemetry.DiffSeries, the join /runs/diff uses.
// Bad input (an unknown kind, a wrong file count, a missing or malformed
// file, a view flag given with -diff) prints one "hstat: ..." line and exits
// 2. Output is deterministic for deterministic artifacts, so the golden gate
// pins the alerts and decisions -tsv renderings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"heroserve/internal/telemetry"
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

// A kind is one artifact type: its file name in a run bundle, its view flags
// beyond -diff and -json, a loader for one file (returning a warning when the
// artifact looks empty), a renderer for one artifact, and the artifact's
// named series, which every diff joins with telemetry.DiffSeries.
type kind struct {
	file   string
	usage  string
	flags  func(fs *flag.FlagSet, o *opts)
	load   func(r io.Reader, o *opts) (artifact any, warning string, err error)
	view   func(w io.Writer, a any, o *opts) error
	series func(a any) map[string]float64
}

var kinds = map[string]kind{
	"trace": {
		file:  telemetry.SpansFile,
		usage: "[-top N] [-json]",
		flags: func(fs *flag.FlagSet, o *opts) {
			fs.IntVar(&o.top, "top", 10, "slowest-requests table size (0 lists every request)")
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
		series: func(a any) map[string]float64 { return a.(*critpath.Report).Series() },
	},
	"alerts": {
		file:  slo.File,
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
			if err := slo.CheckState(o.state); err != nil {
				return err
			}
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
		series: func(a any) map[string]float64 { return a.(*slo.Log).Summarize().Series() },
	},
	"decisions": {
		file:  decisions.File,
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
		series: func(a any) map[string]float64 { return a.(*decisions.Ledger).Summarize().Series() },
	},
	"perf": {
		file:  perf.File,
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
		series: func(a any) map[string]float64 { return a.(*perf.Report).Series() },
	},
}

func main() {
	names := telemetry.SortedKeys(kinds)
	if len(os.Args) < 2 {
		fatalf("usage: hstat <%s> [flags] dir|file | hstat <kind> -diff a b | hstat diff a/ b/", strings.Join(names, "|"))
	}
	name := os.Args[1]
	k, ok := kinds[name]
	usage := fmt.Sprintf("usage: hstat %s %s dir|file | hstat %s -diff [-json] a b", name, k.usage, name)
	if name == "diff" {
		usage = "usage: hstat diff [-json] a/ b/"
	} else if !ok {
		fatalf("unknown kind %q (want one of: %s diff)", name, strings.Join(names, " "))
	}

	var o opts
	fs := flag.NewFlagSet("hstat "+name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	diff := name == "diff"
	if !diff {
		fs.BoolVar(&diff, "diff", false, "compare two artifacts (takes two bundles or files)")
	}
	fs.BoolVar(&o.json, "json", false, "emit JSON instead of text")
	if k.flags != nil {
		k.flags(fs, &o)
	}
	if err := fs.Parse(os.Args[2:]); err != nil {
		fatalf("%v; %s", err, usage)
	}
	if o.top < 0 {
		fatalf("-top %d is negative; %s", o.top, usage)
	}
	// The view flags shape one artifact's rendering; a diff takes none.
	fs.Visit(func(f *flag.Flag) {
		if diff && f.Name != "diff" && f.Name != "json" {
			fatalf("-%s does not apply to -diff; %s", f.Name, usage)
		}
	})
	files := fs.Args()

	var err error
	switch {
	case name == "diff" && len(files) == 2:
		err = diffBundles(os.Stdout, names, files[0], files[1], o.json)
	case diff && len(files) == 2:
		d := diffKind(k, files[0], files[1])
		if o.json {
			err = writeIndented(os.Stdout, d)
		} else {
			err = d.Fprint(os.Stdout)
		}
	case !diff && len(files) == 1:
		err = k.view(os.Stdout, load(k, files[0], &o), &o)
	default:
		fatalf("%s", usage)
	}
	if err != nil {
		fatalf("%v", err)
	}
}

// diffBundles runs the one diff for every kind whose file both bundles hold,
// each under a "== <kind>" header, and names a file only one bundle holds.
func diffBundles(w io.Writer, names []string, a, b string, asJSON bool) error {
	for _, dir := range []string{a, b} {
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			fatalf("%s is not a bundle directory", dir)
		}
	}
	// A kind whose file only one bundle holds has a null diff.
	out := map[string]*telemetry.Diff{}
	var text strings.Builder
	for _, name := range names {
		k := kinds[name]
		_, errA := os.Stat(filepath.Join(a, k.file))
		_, errB := os.Stat(filepath.Join(b, k.file))
		if errA != nil && errB != nil {
			continue
		}
		fmt.Fprintf(&text, "== %s\n", name)
		switch {
		case errA != nil:
			fmt.Fprintf(&text, "%s missing in a\n", k.file)
		case errB != nil:
			fmt.Fprintf(&text, "%s missing in b\n", k.file)
		default:
			d := diffKind(k, a, b)
			d.Fprint(&text)
			out[name] = &d
			continue
		}
		out[name] = nil
	}
	if asJSON {
		return writeIndented(w, out)
	}
	_, err := io.WriteString(w, text.String())
	return err
}

// diffKind loads two artifacts of one kind and joins their named series.
func diffKind(k kind, a, b string) telemetry.Diff {
	var o opts
	return telemetry.DiffSeries(k.series(load(k, a, &o)), k.series(load(k, b, &o)))
}

// load reads one artifact with the kind's loader: the kind's file of a
// bundle directory, a file, or "-" for stdin.
func load(k kind, path string, o *opts) any {
	var r io.Reader = os.Stdin
	if path != "-" {
		if st, err := os.Stat(path); err == nil && st.IsDir() {
			path = filepath.Join(path, k.file)
		}
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
