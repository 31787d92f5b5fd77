package slo

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"heroserve/internal/telemetry"
)

// CauseValue is one named input the rule saw at trigger time.
type CauseValue struct {
	Name  string              `json:"name"`
	Value telemetry.JSONFloat `json:"value"`
}

// StageShare is one critical-path stage's mass over the trigger window.
type StageShare struct {
	Stage   string              `json:"stage"`
	Seconds telemetry.JSONFloat `json:"seconds"`
	Share   telemetry.JSONFloat `json:"share"`
}

// Cause is the snapshot captured the moment an alert fires: the rule's
// inputs plus the top critical-path offenders over the trigger window,
// heaviest first. Baseline is set by stage-shift alerts: the dominant stage
// the window shifted away from.
type Cause struct {
	Values   []CauseValue `json:"values"`
	Stages   []StageShare `json:"stages,omitempty"`
	Dominant string       `json:"dominant,omitempty"`
	Baseline string       `json:"baseline,omitempty"`
}

// Alert is one alert instance. Sim-time stamps; FiredAt and ResolvedAt are
// -1 until the alert reaches that state (sim-time starts at 0). A pending
// alert whose condition clears before For elapses resolves with FiredAt
// still -1 — a canceled pending.
type Alert struct {
	Rule       string              `json:"rule"`
	Kind       Kind                `json:"kind"`
	Severity   Severity            `json:"severity"`
	State      State               `json:"state"`
	Since      float64             `json:"since"`
	FiredAt    float64             `json:"fired_at"`
	ResolvedAt float64             `json:"resolved_at"`
	Value      telemetry.JSONFloat `json:"value"`
	Cause      *Cause              `json:"cause,omitempty"`
}

// Meta describes the monitored run: the armed rules, the evaluation cadence,
// the sim-time the run ended, and how many resolved alerts retention evicted
// from the log.
type Meta struct {
	Rules   []Rule  `json:"rules"`
	Every   float64 `json:"every"`
	End     float64 `json:"end"`
	Evicted int     `json:"evicted,omitempty"`
}

// Log is the serializable alert log: a run bundle's alerts.json, what
// /alerts serves, and what hstat alerts reads.
type Log struct {
	Meta   Meta    `json:"meta"`
	Alerts []Alert `json:"alerts"`
}

// WriteJSON writes the log as a single JSON document. Output is
// deterministic: alerts are stored in creation order and encoding/json
// sorts nothing it shouldn't.
func (l *Log) WriteJSON(w io.Writer) error {
	out := *l
	if out.Alerts == nil {
		out.Alerts = []Alert{}
	}
	if out.Meta.Rules == nil {
		out.Meta.Rules = []Rule{}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(&out); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadLog parses a document written by WriteJSON.
func ReadLog(r io.Reader) (*Log, error) {
	var l Log
	dec := json.NewDecoder(r)
	if err := dec.Decode(&l); err != nil {
		return nil, fmt.Errorf("slo: parse alert log: %w", err)
	}
	return &l, nil
}

// Filter returns a copy of the log keeping alerts that match every given
// criterion: state and rule match exactly when non-empty; from/to bound the
// alert's Since stamp (to <= 0 means no upper bound). Meta is preserved.
func (l *Log) Filter(state, rule string, from, to float64) *Log {
	out := &Log{Meta: l.Meta, Alerts: []Alert{}}
	for _, a := range l.Alerts {
		if state != "" && string(a.State) != state {
			continue
		}
		if rule != "" && a.Rule != rule {
			continue
		}
		if a.Since < from {
			continue
		}
		if to > 0 && a.Since > to {
			continue
		}
		out.Alerts = append(out.Alerts, a)
	}
	return out
}

// RuleStat aggregates one rule's alerts over the run.
type RuleStat struct {
	Rule          string   `json:"rule"`
	Severity      Severity `json:"severity"`
	Kind          Kind     `json:"kind"`
	Fired         int      `json:"fired"`
	Resolved      int      `json:"resolved"`
	Canceled      int      `json:"canceled"`
	FiringSeconds float64  `json:"firing_seconds"`
}

// Summary is the roll-up of an alert log: one row per armed rule (sorted by
// rule name) plus run totals. Worst is the most urgent severity still firing
// at run end, or "none".
type Summary struct {
	Rules       []RuleStat `json:"rules"`
	Alerts      int        `json:"alerts"`
	Fired       int        `json:"fired"`
	Resolved    int        `json:"resolved"`
	Canceled    int        `json:"canceled"`
	FiringAtEnd int        `json:"firing_at_end"`
	Worst       string     `json:"worst_firing"`
	Evicted     int        `json:"evicted"`
	End         float64    `json:"end"`
}

// Summarize rolls the log up. Every armed rule gets a row even with zero
// alerts, so the summary shape is stable across healthy and degraded runs.
func (l *Log) Summarize() *Summary {
	s := &Summary{Worst: "none", Evicted: l.Meta.Evicted, End: l.Meta.End}
	stats := make(map[string]*RuleStat, len(l.Meta.Rules))
	for _, r := range l.Meta.Rules {
		stats[r.Name] = &RuleStat{Rule: r.Name, Severity: r.Severity, Kind: r.Kind}
	}
	worst := Severity(-1)
	for _, a := range l.Alerts {
		s.Alerts++
		st, ok := stats[a.Rule]
		if !ok {
			st = &RuleStat{Rule: a.Rule, Severity: a.Severity, Kind: a.Kind}
			stats[a.Rule] = st
		}
		switch {
		case a.FiredAt >= 0:
			s.Fired++
			st.Fired++
			end := a.ResolvedAt
			if a.State == StateResolved {
				s.Resolved++
				st.Resolved++
			} else {
				end = l.Meta.End
				s.FiringAtEnd++
				if a.Severity > worst {
					worst = a.Severity
				}
			}
			if end >= a.FiredAt {
				st.FiringSeconds += end - a.FiredAt
			}
		case a.State == StateResolved:
			s.Canceled++
			st.Canceled++
		}
	}
	if worst >= 0 {
		s.Worst = worst.String()
	}
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.Rules = append(s.Rules, *stats[n])
	}
	return s
}

// String renders the one-line form used in serve's run footer.
func (s *Summary) String() string {
	if s == nil {
		return "none"
	}
	if s.Fired == 0 && s.Canceled == 0 {
		return fmt.Sprintf("none fired (%d rules armed)", len(s.Rules))
	}
	out := fmt.Sprintf("%d fired / %d resolved", s.Fired, s.Resolved)
	if s.Canceled > 0 {
		out += fmt.Sprintf(" / %d canceled pending", s.Canceled)
	}
	if s.FiringAtEnd > 0 {
		out += fmt.Sprintf(", %d still firing (worst %s)", s.FiringAtEnd, s.Worst)
	}
	return out
}

// stamp renders a lifecycle timestamp, with "-" for the -1 never-reached
// sentinel.
func stamp(v float64) string {
	if v < 0 {
		return "-"
	}
	return telemetry.FormatFloat(v)
}

// WriteTSV writes the machine-readable table export golden tests pin: the
// full per-alert lifecycle, the per-rule roll-up, and run totals.
func (l *Log) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "## alerts")
	fmt.Fprintln(bw, "rule\tseverity\tstate\tsince\tfired_at\tresolved_at\tvalue\tdominant")
	for _, a := range l.Alerts {
		dom := "-"
		if a.Cause != nil && a.Cause.Dominant != "" {
			dom = a.Cause.Dominant
		}
		fmt.Fprintf(bw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			a.Rule, a.Severity, a.State, telemetry.FormatFloat(a.Since), stamp(a.FiredAt),
			stamp(a.ResolvedAt), telemetry.FormatFloat(float64(a.Value)), dom)
	}
	s := l.Summarize()
	fmt.Fprintln(bw, "## rules")
	fmt.Fprintln(bw, "rule\tseverity\tkind\tfired\tresolved\tcanceled\tfiring_seconds")
	for _, r := range s.Rules {
		fmt.Fprintf(bw, "%s\t%s\t%s\t%d\t%d\t%d\t%s\n",
			r.Rule, r.Severity, r.Kind, r.Fired, r.Resolved, r.Canceled, telemetry.FormatFloat(r.FiringSeconds))
	}
	fmt.Fprintln(bw, "## totals")
	fmt.Fprintf(bw, "alerts\t%d\n", s.Alerts)
	fmt.Fprintf(bw, "fired\t%d\n", s.Fired)
	fmt.Fprintf(bw, "resolved\t%d\n", s.Resolved)
	fmt.Fprintf(bw, "canceled\t%d\n", s.Canceled)
	fmt.Fprintf(bw, "firing_at_end\t%d\n", s.FiringAtEnd)
	fmt.Fprintf(bw, "worst_firing\t%s\n", s.Worst)
	fmt.Fprintf(bw, "evicted\t%d\n", s.Evicted)
	fmt.Fprintf(bw, "end\t%s\n", telemetry.FormatFloat(s.End))
	return bw.Flush()
}

// FprintTimeline renders the human-readable default view: every lifecycle
// transition in sim-time order, then the one-line summary.
func (l *Log) FprintTimeline(w io.Writer) error {
	type event struct {
		t     float64
		rule  string
		order int // pending < firing < resolved at equal times
		line  string
	}
	var events []event
	for _, a := range l.Alerts {
		events = append(events, event{a.Since, a.Rule, 0,
			fmt.Sprintf("%10.3fs  %-24s pending   (%s, %s)", a.Since, a.Rule, a.Kind, a.Severity)})
		if a.FiredAt >= 0 {
			dom := ""
			if a.Cause != nil && a.Cause.Dominant != "" {
				dom = "  dominant " + a.Cause.Dominant
			}
			events = append(events, event{a.FiredAt, a.Rule, 1,
				fmt.Sprintf("%10.3fs  %-24s FIRING    value %s%s", a.FiredAt, a.Rule, telemetry.FormatFloat(float64(a.Value)), dom)})
		}
		if a.ResolvedAt >= 0 {
			ref := a.FiredAt
			verb := "resolved"
			if ref < 0 {
				ref = a.Since
				verb = "canceled"
			}
			events = append(events, event{a.ResolvedAt, a.Rule, 2,
				fmt.Sprintf("%10.3fs  %-24s %s  after %.3fs", a.ResolvedAt, a.Rule, verb, a.ResolvedAt-ref)})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		if events[i].rule != events[j].rule {
			return events[i].rule < events[j].rule
		}
		return events[i].order < events[j].order
	})
	s := l.Summarize()
	fmt.Fprintf(w, "alert timeline: %d alerts from %d rules over %.3fs\n", s.Alerts, len(s.Rules), s.End)
	for _, e := range events {
		fmt.Fprintln(w, e.line)
	}
	if len(events) == 0 {
		fmt.Fprintln(w, "  (no alerts)")
	}
	fmt.Fprintf(w, "summary: %s\n", s)
	return nil
}

// FprintSummary renders the per-rule roll-up table.
func (l *Log) FprintSummary(w io.Writer) error {
	s := l.Summarize()
	fmt.Fprintf(w, "alert summary: %s\n", s)
	fmt.Fprintf(w, "%-24s %-9s %-14s %6s %9s %9s %14s\n",
		"rule", "severity", "kind", "fired", "resolved", "canceled", "firing")
	for _, r := range s.Rules {
		fmt.Fprintf(w, "%-24s %-9s %-14s %6d %9d %9d %13.3fs\n",
			r.Rule, r.Severity, r.Kind, r.Fired, r.Resolved, r.Canceled, r.FiringSeconds)
	}
	if s.Evicted > 0 {
		fmt.Fprintf(w, "retention evicted %d resolved alerts from the log\n", s.Evicted)
	}
	fmt.Fprintf(w, "worst firing at end: %s (end %.3fs)\n", s.Worst, s.End)
	return nil
}

// FprintDiff renders the per-rule delta between two alert logs.
func FprintDiff(w io.Writer, a, b *Log) error {
	sa, sb := a.Summarize(), b.Summarize()
	fmt.Fprintf(w, "alerts %d -> %d (%+d), fired %d -> %d (%+d), firing at end %d -> %d (%+d)\n",
		sa.Alerts, sb.Alerts, sb.Alerts-sa.Alerts,
		sa.Fired, sb.Fired, sb.Fired-sa.Fired,
		sa.FiringAtEnd, sb.FiringAtEnd, sb.FiringAtEnd-sa.FiringAtEnd)
	rows := make(map[string][2]RuleStat)
	for _, r := range sa.Rules {
		v := rows[r.Rule]
		v[0] = r
		rows[r.Rule] = v
	}
	for _, r := range sb.Rules {
		v := rows[r.Rule]
		v[1] = r
		rows[r.Rule] = v
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rows[n]
		if v[0] == v[1] {
			continue
		}
		fmt.Fprintf(w, "rule %-24s fired %d -> %d (%+d), firing %.3fs -> %.3fs (%+.3fs)\n",
			n, v[0].Fired, v[1].Fired, v[1].Fired-v[0].Fired,
			v[0].FiringSeconds, v[1].FiringSeconds, v[1].FiringSeconds-v[0].FiringSeconds)
	}
	return nil
}
