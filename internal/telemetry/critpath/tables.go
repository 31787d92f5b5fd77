package critpath

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"heroserve/internal/telemetry"
)

// Tables are a span file's aggregate tables, the golden gate's trace
// surface (hstat trace -tsv): queue-span p50/p99 by process, and all-reduce
// and pipeline_stage hand-off count, mean and p99 by scheme and by stage.
// They catch drift the metrics exposition cannot see: a span that stops
// being emitted, or one all-reduce switching scheme. Durations are in
// milliseconds of sim-time.
type Tables struct {
	queue, allreduce, stages []tableRow
}

// tableRow is one rendered row: a label, a span count and two statistics
// (p50 and p99 for the queue table, mean and p99 for the other two).
type tableRow struct {
	label string
	n     int
	a, b  float64
}

// label is a row label of the async-span tables, a stage number or a
// string, ordered as jq orders values: numbers first, by value, then
// strings, bytewise.
type label struct {
	num   float64
	str   string
	isStr bool
}

func compareLabels(x, y label) int {
	if x.isStr != y.isStr {
		if x.isStr {
			return 1
		}
		return -1
	}
	if x.isStr {
		return strings.Compare(x.str, y.str)
	}
	return cmp.Compare(x.num, y.num)
}

func (l label) String() string {
	if l.isStr {
		return tsvEscaper.Replace(l.str)
	}
	return strconv.FormatFloat(l.num, 'f', -1, 64)
}

// pairKey identifies one async span: its begin and end events share it.
type pairKey struct {
	pid           int
	cat, id, name string
}

// TablesFromTrace computes the aggregate tables of a Chrome trace-event
// JSON document (the Tracer export format).
func TablesFromTrace(r io.Reader) (*Tables, error) {
	events, err := decodeTrace(r)
	if err != nil {
		return nil, err
	}
	return tablesOf(events), nil
}

// tablesOf reduces the events to the three tables:
//   - queue: X spans named "queue", grouped by ascending pid and named by
//     the pid's last process_name (the pid itself when it has none);
//   - allreduce and stages: b/e events paired on (pid, cat, id, name), only
//     groups of exactly two kept, the earlier event's scheme arg (default
//     "unknown") or stage arg (default "?") as the label;
//   - percentile p is sorted[floor((n-1)·p)], and a mean sums the durations
//     in (pid, cat, id, name) order.
func tablesOf(events []telemetry.Event) *Tables {
	names := map[int]string{}
	queue := map[int][]float64{}
	pairs := map[pairKey][]int{}
	for i, ev := range events {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			if s, ok := ev.Args.Str("name"); ok {
				names[ev.Pid] = s
			} else {
				delete(names, ev.Pid)
			}
		case ev.Ph == "X" && ev.Name == "queue":
			var dur float64
			if ev.Dur != nil {
				dur = *ev.Dur
			}
			queue[ev.Pid] = append(queue[ev.Pid], dur/1000)
		case (ev.Ph == "b" || ev.Ph == "e") && (ev.Name == "allreduce" || ev.Name == "pipeline_stage"):
			k := pairKey{ev.Pid, ev.Cat, ev.ID, ev.Name}
			pairs[k] = append(pairs[k], i)
		}
	}

	pids := make([]int, 0, len(queue))
	for pid := range queue {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	t := &Tables{}
	for _, pid := range pids {
		name, ok := names[pid]
		if !ok {
			name = strconv.Itoa(pid)
		}
		d := queue[pid]
		slices.Sort(d)
		t.queue = append(t.queue, tableRow{tsvEscaper.Replace(name), len(d), pct(d, 0.5), pct(d, 0.99)})
	}

	keys := make([]pairKey, 0, len(pairs))
	for k, idx := range pairs {
		if len(idx) == 2 {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(x, y pairKey) int {
		return cmp.Or(cmp.Compare(x.pid, y.pid), strings.Compare(x.cat, y.cat),
			strings.Compare(x.id, y.id), strings.Compare(x.name, y.name))
	})
	schemes := map[label][]float64{}
	stages := map[label][]float64{}
	for _, k := range keys {
		b, e := events[pairs[k][0]], events[pairs[k][1]]
		if e.Ts < b.Ts {
			b, e = e, b
		}
		dur := (e.Ts - b.Ts) / 1000
		if k.name == "allreduce" {
			l := argLabel(b.Args, "scheme", "unknown")
			schemes[l] = append(schemes[l], dur)
		} else {
			l := argLabel(b.Args, "stage", "?")
			stages[l] = append(stages[l], dur)
		}
	}
	t.allreduce = meanRows(schemes)
	t.stages = meanRows(stages)
	return t
}

// argLabel is the label the string or number argument key gives, or def.
func argLabel(args telemetry.Args, key, def string) label {
	if s, ok := args.Str(key); ok {
		return label{str: s, isStr: true}
	}
	if f, ok := args.Float(key); ok {
		return label{num: f}
	}
	return label{str: def, isStr: true}
}

// meanRows renders one row per label, in label order: count, mean and p99.
func meanRows(groups map[label][]float64) []tableRow {
	labels := make([]label, 0, len(groups))
	for l := range groups {
		labels = append(labels, l)
	}
	slices.SortFunc(labels, compareLabels)
	rows := make([]tableRow, 0, len(labels))
	for _, l := range labels {
		d := groups[l]
		var sum float64
		for _, v := range d {
			sum += v
		}
		mean := sum / float64(len(d))
		slices.Sort(d)
		rows = append(rows, tableRow{l.String(), len(d), mean, pct(d, 0.99)})
	}
	return rows
}

// pct is the p-th percentile of sorted, non-empty d: d[floor((n-1)·p)].
func pct(d []float64, p float64) float64 {
	return d[int(math.Floor(float64(len(d)-1)*p))]
}

// WriteTSV renders the three tables, each under a "## <name>" line and a
// header row, every statistic rounded to 3 decimals.
func (t *Tables) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range []struct {
		name, header string
		rows         []tableRow
	}{
		{"queue", "PROCESS\tN\tP50_MS\tP99_MS", t.queue},
		{"allreduce", "SCHEME\tN\tMEAN_MS\tP99_MS", t.allreduce},
		{"stages", "STAGE\tN\tMEAN_MS\tP99_MS", t.stages},
	} {
		fmt.Fprintf(bw, "## %s\n%s\n", s.name, s.header)
		for _, r := range s.rows {
			fmt.Fprintf(bw, "%s\t%d\t%s\t%s\n", r.label, r.n, round3(r.a), round3(r.b))
		}
	}
	return bw.Flush()
}

// round3 renders v rounded to 3 decimals, half away from zero, in its
// shortest digits without an exponent ('g' would print a 1234567 ms queue
// wait as 1.234567e+06).
func round3(v float64) string { return strconv.FormatFloat(math.Round(v*1000)/1000, 'f', -1, 64) }

// tsvEscaper escapes a TSV field: backslash, tab, newline and return.
var tsvEscaper = strings.NewReplacer(`\`, `\\`, "\t", `\t`, "\n", `\n`, "\r", `\r`)
