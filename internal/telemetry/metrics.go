// Package telemetry is HeroServe's zero-dependency observability layer. It
// records labeled metrics (counters, gauges, fixed-bucket histograms) and
// sim-time spans (Chrome trace-event JSON) for every layer of the simulator:
// netsim flows and link utilization, switchsim slot occupancy, the online
// scheduler's per-collective policy picks, serving batch formation and SLA
// verdicts, and injected faults.
//
// Everything is stamped with *simulated* time — the discrete-event engine's
// clock — never wall-clock, so two runs with the same seed export byte-
// identical files. Export order is deterministic: metric families and children
// are sorted, trace events are appended in event-loop order (which PR 1 made
// deterministic), and JSON object keys are sorted by encoding/json.
//
// All handle types are nil-receiver safe: a component holding a nil *Counter
// (telemetry disabled) pays one nil check per update and allocates nothing.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"heroserve/internal/stats"
)

// metric family kinds, matching the Prometheus TYPE keywords.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// labelSep joins label values into a child key. Label values never contain
// control characters in this codebase, so \xff is collision-free.
const labelSep = "\xff"

// Registry holds metric families keyed by name. It is not goroutine-safe:
// the simulator is single-threaded by design (determinism), and the only
// concurrent code in the repo (the planner's workers) does not touch it.
type Registry struct {
	clock func() float64
	fams  map[string]*family
}

type family struct {
	name    string
	help    string
	kind    string
	labels  []string
	buckets []float64 // histogram upper bounds, ascending, without +Inf
	order   []string  // child keys in creation order (sorted at export)
	childs  map[string]*child
}

type child struct {
	values []string
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// NewRegistry returns a registry whose gauges read timestamps from clock.
func NewRegistry(clock func() float64) *Registry {
	return &Registry{clock: clock, fams: make(map[string]*family)}
}

func (r *Registry) family(name, help, kind string, buckets []float64, labels []string) *family {
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, labels: labels,
			buckets: buckets, childs: make(map[string]*child)}
		r.fams[name] = f
		return f
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s%v, was %s%v",
			name, kind, labels, f.kind, f.labels))
	}
	return f
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	c, ok := f.childs[key]
	if !ok {
		c = &child{values: append([]string(nil), values...)}
		f.childs[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// Counter registers (or looks up) a counter family and returns the child for
// the given label values. Call on a nil registry returns a nil handle.
func (r *Registry) Counter(name, help string, labels []string, values ...string) *Counter {
	if r == nil {
		return nil
	}
	c := r.family(name, help, kindCounter, nil, labels).child(values)
	if c.ctr == nil {
		c.ctr = &Counter{}
	}
	return c.ctr
}

// Gauge registers (or looks up) a gauge family and returns the child for the
// given label values. Gauges also accumulate a time-weighted mean (exported as
// <name>_timeavg), advanced by the registry clock on every Set.
func (r *Registry) Gauge(name, help string, labels []string, values ...string) *Gauge {
	if r == nil {
		return nil
	}
	c := r.family(name, help, kindGauge, nil, labels).child(values)
	if c.gauge == nil {
		c.gauge = &Gauge{clock: r.clock}
	}
	return c.gauge
}

// Histogram registers (or looks up) a histogram family with the given upper
// bounds (ascending, +Inf implied) and returns the child for the label values.
func (r *Registry) Histogram(name, help string, buckets []float64, labels []string, values ...string) *Histogram {
	if r == nil {
		return nil
	}
	c := r.family(name, help, kindHistogram, buckets, labels).child(values)
	if c.hist == nil {
		c.hist = &Histogram{
			upper:  buckets,
			counts: make([]uint64, len(buckets)),
			dropped: r.Counter("telemetry_dropped_samples_total",
				"Non-finite histogram samples dropped before they could poison the sum, by metric.",
				[]string{"metric"}, name),
		}
	}
	return c.hist
}

// Value returns the current value of a counter or gauge child, or false if the
// family or child does not exist (or is a histogram).
func (r *Registry) Value(name string, values ...string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	f, ok := r.fams[name]
	if !ok {
		return 0, false
	}
	c, ok := f.childs[strings.Join(values, labelSep)]
	if !ok {
		return 0, false
	}
	switch {
	case c.ctr != nil:
		return c.ctr.v, true
	case c.gauge != nil:
		return c.gauge.tw.Value(), true
	}
	return 0, false
}

// TimeAvg returns the time-weighted mean of a gauge child over the run so
// far, read as of the current clock — the same number the exposition's
// <name>_timeavg series reports. It returns false if the family or child
// does not exist or is not a gauge.
func (r *Registry) TimeAvg(name string, values ...string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	f, ok := r.fams[name]
	if !ok {
		return 0, false
	}
	c, ok := f.childs[strings.Join(values, labelSep)]
	if !ok || c.gauge == nil {
		return 0, false
	}
	return c.gauge.tw.MeanAt(r.clock()), true
}

// HistogramCount returns the total observation count of a histogram child.
func (r *Registry) HistogramCount(name string, values ...string) (uint64, bool) {
	if r == nil {
		return 0, false
	}
	f, ok := r.fams[name]
	if !ok {
		return 0, false
	}
	c, ok := f.childs[strings.Join(values, labelSep)]
	if !ok || c.hist == nil {
		return 0, false
	}
	return c.hist.n, true
}

// HistogramOver returns the number of observations above the effective bound:
// the largest bucket upper bound <= bound. With fixed buckets the true count
// above an arbitrary bound is not recoverable, so the effective bound is the
// pessimistic (tightest not-exceeding) choice; when bound undercuts every
// bucket the smallest bucket is used. used reports the bound actually applied
// so callers can surface the approximation.
func (r *Registry) HistogramOver(name string, bound float64, values ...string) (over uint64, used float64, ok bool) {
	if r == nil {
		return 0, 0, false
	}
	f, okf := r.fams[name]
	if !okf {
		return 0, 0, false
	}
	c, okc := f.childs[strings.Join(values, labelSep)]
	if !okc || c.hist == nil || len(c.hist.upper) == 0 {
		return 0, 0, false
	}
	h := c.hist
	idx := 0
	for i, ub := range h.upper {
		if ub > bound {
			break
		}
		idx = i
	}
	var cum uint64
	for i := 0; i <= idx; i++ {
		cum += h.counts[i]
	}
	return h.n - cum, h.upper[idx], true
}

// Children returns the label-value sets of a family's children, sorted the
// way the exposition sorts them, so callers can deterministically enumerate
// dynamic children (e.g. per-instance gauges). Nil registry or unknown family
// returns nil.
func (r *Registry) Children(name string) [][]string {
	if r == nil {
		return nil
	}
	f, ok := r.fams[name]
	if !ok {
		return nil
	}
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	out := make([][]string, 0, len(keys))
	for _, key := range keys {
		out = append(out, append([]string(nil), f.childs[key].values...))
	}
	return out
}

// Counter is a monotonically nondecreasing sum. The nil handle is a no-op.
type Counter struct{ v float64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (negative deltas are ignored: counters are monotone).
func (c *Counter) Add(d float64) {
	if c == nil || d < 0 {
		return
	}
	c.v += d
}

// Value returns the current sum (0 on the nil handle).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value metric that additionally integrates a time-weighted
// mean over sim-time. The nil handle is a no-op.
type Gauge struct {
	clock func() float64
	tw    stats.TimeWeighted
}

// Set records v at the current sim-time.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.tw.Observe(g.clock(), v)
}

// Histogram is a fixed-bucket cumulative histogram. The nil handle is a no-op.
// Non-finite samples are dropped (a single NaN would otherwise fail every
// bucket comparison and poison the sum forever) and tallied in the registry's
// telemetry_dropped_samples_total counter.
type Histogram struct {
	upper   []float64
	counts  []uint64 // per-bucket (non-cumulative); +Inf overflow tracked by n
	sum     float64
	n       uint64
	dropped *Counter // telemetry_dropped_samples_total{metric}
}

// Observe adds one sample. Non-finite samples are dropped and counted.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.dropped.Inc()
		return
	}
	h.n++
	h.sum += v
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i]++
			return
		}
	}
}

// WriteProm writes the registry in the Prometheus text exposition format.
// Output is deterministic: families sorted by name, children sorted by label
// values, floats formatted by strconv. Gauge time-averages are read as of the
// current sim-time, so they cover the run so far, without advancing the
// gauges: rendering changes nothing the run records later.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	names := SortedKeys(r.fams)
	now := r.clock()
	var b strings.Builder
	for _, name := range names {
		f := r.fams[name]
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, f.kind)
		var timeavg strings.Builder
		for _, key := range keys {
			c := f.childs[key]
			ls := labelString(f.labels, c.values)
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %s\n", name, ls, FormatFloat(c.ctr.v))
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", name, ls, FormatFloat(c.gauge.tw.Value()))
				fmt.Fprintf(&timeavg, "%s_timeavg%s %s\n", name, ls, FormatFloat(c.gauge.tw.MeanAt(now)))
			case kindHistogram:
				bucket := func(le string, cum uint64) {
					fmt.Fprintf(&b, "%s_bucket%s %d\n", name,
						labelString(append(f.labels, "le"), append(c.values, le)), cum)
				}
				var cum uint64
				for i, ub := range f.buckets {
					cum += c.hist.counts[i]
					bucket(FormatFloat(ub), cum)
				}
				bucket("+Inf", c.hist.n)
				fmt.Fprintf(&b, "%s_sum%s %s\n", name, ls, FormatFloat(c.hist.sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", name, ls, c.hist.n)
			}
		}
		if timeavg.Len() > 0 {
			fmt.Fprintf(&b, "# HELP %s_timeavg Time-weighted mean of %s over the run.\n", name, name)
			fmt.Fprintf(&b, "# TYPE %s_timeavg gauge\n", name)
			b.WriteString(timeavg.String())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func labelString(labels, values []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
