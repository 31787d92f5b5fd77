// Package decisions is the counterfactual decision ledger: a deterministic,
// sim-time-stamped record of every control-plane choice the serving system
// makes, together with the cost of the roads not taken.
//
// Two decision kinds are recorded:
//
//   - Collective-scheme picks (the online scheduler's Eq. 16 selection): for
//     every all-reduce the ledger stores the full candidate cost vector — the
//     J(c, D) every policy in the group's cost table evaluated to at decision
//     time — the chosen policy, the executed policy (a data-plane guard may
//     force ring), and the regret of the execution versus the cheapest
//     candidate. The chosen policy's counterfactual cost in the ledger is BY
//     CONSTRUCTION the exact float the table minimized, so "counterfactual
//     equals audited cost" holds bit for bit.
//
//   - Scale decisions (the autoscaler's per-interval ScalePolicy verdicts):
//     the full input signal snapshot, the primary law's verdict and the
//     action actually applied, every shadow law's verdict on the same
//     signals, and — stamped at the next control step — the realized outcome
//     window (completions, SLA verdicts, mean TTFT/TPOT) so expected-versus-
//     realized drift is queryable per decision.
//
// Everything is stamped with simulated time and derived from deterministic
// state, so two same-seed runs produce byte-identical ledgers (asserted by
// the golden gate, including under the reference simulator fast-path
// implementations).
package decisions

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"heroserve/internal/telemetry"
)

// File is the decision ledger's name in a run bundle (serve -out), where
// hstat decisions finds it. It holds one rendering of Ledger.WriteJSON.
const File = "decisions.json"

// Record kinds.
const (
	KindCollective = "collective"
	KindScale      = "scale"
)

// CollectiveCandidate is one row of a policy-select counterfactual cost
// vector: a candidate policy from the group's cost table and its cost at
// decision time.
type CollectiveCandidate struct {
	Label  string `json:"label"`
	Scheme string `json:"scheme"`
	// CostJ is J(c, D) = b_c + delta(c, D), the utilization cost the table
	// minimized (Eq. 16), evaluated for EVERY candidate, not just the winner.
	CostJ telemetry.JSONFloat `json:"cost_j"`
	// CostSeconds converts CostJ into estimated bottleneck busy-seconds
	// within the scheduler's estimation window: J * T_u. This is the unit
	// the regret counters accumulate.
	CostSeconds telemetry.JSONFloat `json:"cost_seconds"`
}

// CollectiveRecord audits one policy-select decision.
type CollectiveRecord struct {
	T     float64 `json:"t"`
	Group string  `json:"group"`
	Bytes int64   `json:"bytes"` // msgBytes * steps, the D of Eq. 16
	Steps int     `json:"steps"`
	// Candidates is the full cost vector, indexed like the group's table.
	Candidates []CollectiveCandidate `json:"candidates"`
	// Chosen is the table's pick (the argmin of CostJ, ties to lowest index).
	Chosen int `json:"chosen"`
	// Best is the cheapest candidate overall; equals Chosen by Eq. 16 and is
	// kept explicit so the invariant is checkable from the ledger alone.
	Best int `json:"best"`
	// Executed is the candidate actually run: the local data-plane guard may
	// move an INA pick to the ring row without waiting for a table refresh.
	Executed int    `json:"executed"`
	Scheme   string `json:"scheme"` // executed scheme
	// Reason labels how the executed candidate was reached: "table" (plain
	// Eq. 16 argmin) or "guard-fallback" (data-plane guard moved an INA pick
	// to ring).
	Reason string `json:"reason"`
	// Actual is Candidates[Executed].CostSeconds — the audited cost of the
	// decision, bit-identical to the counterfactual vector entry.
	Actual telemetry.JSONFloat `json:"actual_seconds"`
	// Regret is Actual - Candidates[Best].CostSeconds: zero except under
	// guard fallback (the table pick is the argmin by construction).
	Regret  telemetry.JSONFloat `json:"regret_seconds"`
	Stalled bool                `json:"stalled,omitempty"` // control plane inside a stall window
}

// ScaleSignalsRec is the autoscaler input snapshot a scale decision saw.
type ScaleSignalsRec struct {
	Backlog       int     `json:"backlog"`
	Active        int     `json:"active"`
	Activating    int     `json:"activating"`
	Reserves      int     `json:"reserves"`
	Occupancy     float64 `json:"occupancy"`
	KVUtilization float64 `json:"kv_utilization"`
	LongestIdle   float64 `json:"longest_idle"`
	TTFT          float64 `json:"ttft"`
	TPOT          float64 `json:"tpot"`
	LatencyPrimed bool    `json:"latency_primed"`
	// ActiveAlerts is the SLO monitor's firing set (sorted rule names) at
	// decision time — empty until a monitor is armed.
	ActiveAlerts []string `json:"active_alerts,omitempty"`
	// DominantStage is the critical-path stage carrying the largest share of
	// recent requests' TTFT at decision time ("" until requests complete or
	// when telemetry is off).
	DominantStage string `json:"dominant_stage,omitempty"`
}

// ShadowDecision is one shadow law's verdict on the same signals.
type ShadowDecision struct {
	Law      string `json:"law"`
	Decision string `json:"decision"`
}

// Outcome is the realized window between a scale decision and the next one:
// what actually happened after the fleet (did or did not) change.
type Outcome struct {
	Completed int     `json:"completed"`
	Met       int     `json:"met"`  // SLA-met among Completed (== Completed when the run has no SLA)
	TTFT      float64 `json:"ttft"` // mean over the window's completions (0 when none)
	TPOT      float64 `json:"tpot"`
	Horizon   float64 `json:"horizon"` // window length, seconds
}

// ScaleRecord audits one autoscaler control step.
type ScaleRecord struct {
	T        float64         `json:"t"`
	Primary  string          `json:"primary"`  // law driving the fleet
	Decision string          `json:"decision"` // primary's verdict
	Applied  string          `json:"applied"`  // "activate" | "deactivate" | "none"
	Instance int             `json:"instance"` // affected instance id, -1 when none
	Signals  ScaleSignalsRec `json:"signals"`
	// Law is the sub-law a meta-policy (adaptive) delegated this step to
	// ("" for plain laws).
	Law string `json:"law,omitempty"`
	// Switch records a runtime sub-law switch decided this step as
	// "<from>-><to>"; SwitchSignal names the signal that drove it:
	// "alert", "stage-share", or "regret".
	Switch       string `json:"switch,omitempty"`
	SwitchSignal string `json:"switch_signal,omitempty"`
	// BatchTarget is the effective decode batch cap in force after this step
	// when a policy widened it beyond the configured maximum (0 otherwise).
	BatchTarget int `json:"batch_target,omitempty"`
	// Shadows holds every registered law's verdict on the same signals,
	// sorted by law name. Shadow laws are isolated: they observe signal
	// copies and their verdicts are never applied.
	Shadows  []ShadowDecision `json:"shadows"`
	Disagree int              `json:"disagree"` // shadow verdicts differing from the primary's
	// Outcome is stamped at the next control step (or at run end): the
	// realized window this decision shaped.
	Outcome *Outcome `json:"outcome,omitempty"`
}

// ScaleMeta captures the autoscaler configuration the shadow replay needs to
// reconstruct counterfactual fleet trajectories from the decision stream.
type ScaleMeta struct {
	Fleet           int     `json:"fleet"`
	InitialActive   int     `json:"initial_active"`
	MinActive       int     `json:"min_active"`
	Interval        float64 `json:"interval"`
	GPUsPerInstance int     `json:"gpus_per_instance"`
	SLA             bool    `json:"sla"`
	End             float64 `json:"end"` // sim end, stamped when the run finishes
}

// SetScaleMeta records the autoscaler configuration. Nil-safe.
func (l *Ledger) SetScaleMeta(m ScaleMeta) {
	if l == nil {
		return
	}
	end := l.Meta.End
	l.Meta = m
	if l.Meta.End == 0 {
		l.Meta.End = end
	}
}

// SetEnd stamps the run's final sim-time. Nil-safe.
func (l *Ledger) SetEnd(t float64) {
	if l == nil {
		return
	}
	l.Meta.End = t
}

// ReadJSON parses a ledger written by WriteJSON, with nothing but
// whitespace after it. It rejects a collective record whose chosen, best or
// executed index lies outside its candidates.
func ReadJSON(r io.Reader) (*Ledger, error) {
	var doc document
	if err := telemetry.DecodeJSON(r, &doc); err != nil {
		return nil, fmt.Errorf("decisions: %w", err)
	}
	l := NewLedger()
	l.Meta = doc.Meta
	for i, c := range doc.Collective {
		if n := len(c.Candidates); min(c.Chosen, c.Best, c.Executed) < 0 || max(c.Chosen, c.Best, c.Executed) >= n {
			return nil, fmt.Errorf("decisions: collective record %d: chosen/best/executed %d/%d/%d outside its %d candidates",
				i, c.Chosen, c.Best, c.Executed, n)
		}
		l.AddCollective(c)
	}
	for _, sc := range doc.Scale {
		l.AddScale(sc)
	}
	return l, nil
}

// SchemeStat aggregates one collective scheme's ledger across a run.
type SchemeStat struct {
	Scheme string `json:"scheme"`
	// Chosen counts table picks of this scheme; Executed counts actual
	// executions (guard fallbacks move picks to ring).
	Chosen   int64 `json:"chosen"`
	Executed int64 `json:"executed"`
	// RegretSeconds is the counterfactual cost of always forcing this
	// scheme: sum over decisions of (cheapest candidate of this scheme -
	// cheapest candidate overall), in bottleneck busy-seconds. The winning
	// scheme of a healthy run accumulates ~0.
	RegretSeconds float64 `json:"regret_seconds"`
	// Unpriced counts decisions where every candidate of this scheme was
	// +Inf-priced (faulted switch); those contribute nothing to
	// RegretSeconds.
	Unpriced int64 `json:"unpriced"`
	// Absent counts decisions whose table had no candidate of this scheme.
	Absent int64 `json:"absent"`
}

// LawStat aggregates one scale law's shadow verdicts across a run.
type LawStat struct {
	Law      string `json:"law"`
	ScaleOut int64  `json:"scale_out"`
	ScaleIn  int64  `json:"scale_in"`
	Hold     int64  `json:"hold"`
	Disagree int64  `json:"disagree"` // steps where this law's verdict differed from the primary's
}

// Drift compares the signal-window latencies scale decisions acted on with
// the realized outcome windows that followed them.
type Drift struct {
	Windows          int     `json:"windows"` // records with a stamped outcome and completions
	MeanSignalTTFT   float64 `json:"mean_signal_ttft"`
	MeanRealizedTTFT float64 `json:"mean_realized_ttft"`
	MeanSignalTPOT   float64 `json:"mean_signal_tpot"`
	MeanRealizedTPOT float64 `json:"mean_realized_tpot"`
	// Attainment is realized SLA attainment over all outcome windows.
	Attainment float64 `json:"attainment"`
	Completed  int     `json:"completed"`
}

// SwitchStat counts runtime policy switches by the signal that drove them.
type SwitchStat struct {
	Signal string `json:"signal"`
	Count  int64  `json:"count"`
}

// Summary condenses a ledger for reports, the serve one-liner, and the
// golden TSVs.
type Summary struct {
	Collective         int          `json:"collective"`
	Scale              int          `json:"scale"`
	Fallbacks          int64        `json:"fallbacks"`
	Stalled            int64        `json:"stalled"`
	TotalRegretSeconds float64      `json:"total_regret_seconds"` // executed vs best, summed
	Schemes            []SchemeStat `json:"schemes"`              // sorted by RegretSeconds asc, then name
	Primary            string       `json:"primary,omitempty"`    // scale primary law (if any)
	Laws               []LawStat    `json:"laws"`                 // sorted by law name
	Disagreements      int64        `json:"disagreements"`        // total shadow disagreements
	Switches           []SwitchStat `json:"switches"`             // runtime sub-law switches, sorted by signal
	Drift              *Drift       `json:"drift,omitempty"`
}

// Summarize builds the ledger's summary.
func (l *Ledger) Summarize() *Summary {
	s := &Summary{Schemes: []SchemeStat{}, Laws: []LawStat{}, Switches: []SwitchStat{}}
	if l == nil {
		return s
	}
	s.Collective = l.coll.n
	s.Scale = l.scale.n

	// Per-scheme stats by interned name, and per-table shapes: each
	// candidate's slot among its table's distinct schemes, so a pick finds
	// each scheme's cheapest candidate without a map.
	stats := make([]*SchemeStat, len(l.strs))
	scheme := func(id uint32) *SchemeStat {
		if stats[id] == nil {
			stats[id] = &SchemeStat{Scheme: l.strs[id]}
		}
		return stats[id]
	}
	type shape struct {
		distinct []uint32 // the table's schemes, first appearance first
		slot     []int    // candidate -> index in distinct
		picks    int64
	}
	shapes := make([]shape, len(l.tables))
	for i := range l.tables {
		sh := &shapes[i]
		for _, id := range l.tables[i].schemes {
			k := slices.Index(sh.distinct, id)
			if k < 0 {
				k = len(sh.distinct)
				sh.distinct = append(sh.distinct, id)
			}
			sh.slot = append(sh.slot, k)
		}
	}
	var mins []float64
	var seen []bool
	l.coll.each(func(c *chunk[row], r *row) {
		if l.strs[r.reason] == "guard-fallback" {
			s.Fallbacks++
		}
		if r.stalled {
			s.Stalled++
		}
		if reg := r.regret; !math.IsInf(reg, 0) && !math.IsNaN(reg) {
			s.TotalRegretSeconds += reg
		}
		tab, sh := &l.tables[r.table], &shapes[r.table]
		sh.picks++
		if r.chosen >= 0 && int(r.chosen) < len(tab.schemes) {
			scheme(tab.schemes[r.chosen]).Chosen++
		}
		scheme(r.scheme).Executed++
		// Per-scheme counterfactual: the cheapest candidate of each scheme
		// versus the cheapest candidate overall.
		mins, seen = mins[:0], seen[:0]
		for range sh.distinct {
			mins, seen = append(mins, 0), append(seen, false)
		}
		best := math.Inf(1)
		costs := tab.costs(c, r)
		for i, k := range sh.slot {
			j := costs[2*i+1]
			if j < best {
				best = j
			}
			if !seen[k] || j < mins[k] {
				mins[k], seen[k] = j, true
			}
		}
		if math.IsInf(best, 1) {
			return
		}
		for k, id := range sh.distinct {
			st := scheme(id)
			if math.IsInf(mins[k], 1) {
				st.Unpriced++
				continue
			}
			st.RegretSeconds += mins[k] - best
		}
	})
	// Every decision where a scheme had no candidate counts as Absent, so
	// per-scheme regret totals are comparable across schemes.
	for id, st := range stats {
		if st == nil {
			continue
		}
		for i := range shapes {
			if !slices.Contains(shapes[i].distinct, uint32(id)) {
				st.Absent += shapes[i].picks
			}
		}
		s.Schemes = append(s.Schemes, *st)
	}
	// By name first: the regret order leaves NaN totals where they stand.
	sort.Slice(s.Schemes, func(i, j int) bool { return s.Schemes[i].Scheme < s.Schemes[j].Scheme })
	sort.SliceStable(s.Schemes, func(i, j int) bool {
		if s.Schemes[i].RegretSeconds != s.Schemes[j].RegretSeconds {
			return s.Schemes[i].RegretSeconds < s.Schemes[j].RegretSeconds
		}
		return s.Schemes[i].Scheme < s.Schemes[j].Scheme
	})

	laws := map[string]*LawStat{}
	law := func(name string) *LawStat {
		st, ok := laws[name]
		if !ok {
			st = &LawStat{Law: name}
			laws[name] = st
		}
		return st
	}
	var drift Drift
	var sigTTFT, sigTPOT, realTTFT, realTPOT float64
	var met int
	switches := map[string]int64{}
	l.scale.each(func(_ *chunk[ScaleRecord], r *ScaleRecord) {
		s.Primary = r.Primary
		if r.Switch != "" {
			sigName := r.SwitchSignal
			if sigName == "" {
				sigName = "unknown"
			}
			switches[sigName]++
		}
		for _, sh := range r.Shadows {
			st := law(sh.Law)
			switch sh.Decision {
			case "scale_out":
				st.ScaleOut++
			case "scale_in":
				st.ScaleIn++
			default:
				st.Hold++
			}
			if sh.Decision != r.Decision {
				st.Disagree++
				s.Disagreements++
			}
		}
		if o := r.Outcome; o != nil && o.Completed > 0 {
			drift.Windows++
			drift.Completed += o.Completed
			met += o.Met
			sigTTFT += r.Signals.TTFT
			sigTPOT += r.Signals.TPOT
			realTTFT += o.TTFT
			realTPOT += o.TPOT
		}
	})
	for _, n := range telemetry.SortedKeys(laws) {
		s.Laws = append(s.Laws, *laws[n])
	}
	for _, n := range telemetry.SortedKeys(switches) {
		s.Switches = append(s.Switches, SwitchStat{Signal: n, Count: switches[n]})
	}
	if drift.Windows > 0 {
		n := float64(drift.Windows)
		drift.MeanSignalTTFT = sigTTFT / n
		drift.MeanSignalTPOT = sigTPOT / n
		drift.MeanRealizedTTFT = realTTFT / n
		drift.MeanRealizedTPOT = realTPOT / n
		drift.Attainment = float64(met) / float64(drift.Completed)
		s.Drift = &drift
	}
	return s
}

// String renders the serve one-liner: record counts, the per-scheme regret
// ranking, and the shadow disagreement rate.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d collective", s.Collective)
	if s.Collective > 0 {
		b.WriteString(" (regret")
		for _, st := range s.Schemes {
			fmt.Fprintf(&b, " %s=%+.3gs", st.Scheme, st.RegretSeconds)
		}
		if s.Fallbacks > 0 {
			fmt.Fprintf(&b, "; %d fallbacks", s.Fallbacks)
		}
		b.WriteString(")")
	}
	fmt.Fprintf(&b, ", %d scale", s.Scale)
	if s.Scale > 0 {
		fmt.Fprintf(&b, " (%s", s.Primary)
		total := int64(0)
		for _, lw := range s.Laws {
			total += lw.ScaleOut + lw.ScaleIn + lw.Hold
		}
		if total > 0 {
			fmt.Fprintf(&b, ", shadow disagreement %.0f%%", 100*float64(s.Disagreements)/float64(total))
		}
		b.WriteString(")")
	}
	return b.String()
}

// WriteTSV renders the summary as the deterministic TSV the golden gate
// pins: per-scheme counterfactual totals, per-law shadow verdict counts,
// and the ledger totals. Byte-identical across same-seed runs.
func (s *Summary) WriteTSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("## collective\n")
	b.WriteString("scheme\tchosen\texecuted\tregret_seconds\tunpriced\tabsent\n")
	for _, st := range s.Schemes {
		fmt.Fprintf(&b, "%s\t%d\t%d\t%s\t%d\t%d\n",
			st.Scheme, st.Chosen, st.Executed, telemetry.FormatFloat(st.RegretSeconds), st.Unpriced, st.Absent)
	}
	b.WriteString("## scale\n")
	b.WriteString("law\tscale_out\tscale_in\thold\tdisagree\n")
	for _, lw := range s.Laws {
		fmt.Fprintf(&b, "%s\t%d\t%d\t%d\t%d\n", lw.Law, lw.ScaleOut, lw.ScaleIn, lw.Hold, lw.Disagree)
	}
	b.WriteString("## switches\n")
	b.WriteString("signal\tcount\n")
	for _, sw := range s.Switches {
		fmt.Fprintf(&b, "%s\t%d\n", sw.Signal, sw.Count)
	}
	b.WriteString("## totals\n")
	fmt.Fprintf(&b, "collective\t%d\n", s.Collective)
	fmt.Fprintf(&b, "scale\t%d\n", s.Scale)
	fmt.Fprintf(&b, "fallbacks\t%d\n", s.Fallbacks)
	fmt.Fprintf(&b, "stalled\t%d\n", s.Stalled)
	fmt.Fprintf(&b, "regret_seconds\t%s\n", telemetry.FormatFloat(s.TotalRegretSeconds))
	if s.Drift != nil {
		fmt.Fprintf(&b, "drift_windows\t%d\n", s.Drift.Windows)
		fmt.Fprintf(&b, "drift_attainment\t%s\n", telemetry.FormatFloat(s.Drift.Attainment))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Fprint renders the full text report: record counts and execution regret,
// the per-scheme counterfactual table, the scale laws' shadow verdict matrix
// with the expected-vs-realized drift, and the shadow ranking.
func (l *Ledger) Fprint(w io.Writer) error {
	s, ranks := l.Summarize(), l.ShadowRanking()
	var b strings.Builder
	fmt.Fprintf(&b, "decision ledger: %d collective picks, %d scale steps\n", s.Collective, s.Scale)
	if s.Collective > 0 {
		fmt.Fprintf(&b, "execution regret %.6gs total, %d guard fallbacks, %d picks under control-plane stall\n",
			s.TotalRegretSeconds, s.Fallbacks, s.Stalled)
		fprintSchemes(&b, s)
	}
	if s.Scale > 0 {
		fmt.Fprintf(&b, "\nscale laws (primary: %s; %d shadow disagreements)\n", s.Primary, s.Disagreements)
		fmt.Fprintf(&b, "  %-14s %10s %10s %10s %10s\n", "law", "scale_out", "scale_in", "hold", "disagree")
		for _, lw := range s.Laws {
			fmt.Fprintf(&b, "  %-14s %10d %10d %10d %10d\n", lw.Law, lw.ScaleOut, lw.ScaleIn, lw.Hold, lw.Disagree)
		}
		if d := s.Drift; d != nil {
			fmt.Fprintf(&b, "expected-vs-realized drift over %d outcome windows (%d completions, attainment %.1f%%):\n",
				d.Windows, d.Completed, d.Attainment*100)
			fmt.Fprintf(&b, "  TTFT signal %.3fs -> realized %.3fs (%+.3fs); TPOT signal %.4fs -> realized %.4fs (%+.4fs)\n",
				d.MeanSignalTTFT, d.MeanRealizedTTFT, d.MeanRealizedTTFT-d.MeanSignalTTFT,
				d.MeanSignalTPOT, d.MeanRealizedTPOT, d.MeanRealizedTPOT-d.MeanSignalTPOT)
		}
		fprintShadowRanking(&b, ranks)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// FprintRegret renders only the regret rankings: the per-scheme
// counterfactual table and the shadow ranking of the scale laws.
func (l *Ledger) FprintRegret(w io.Writer) error {
	var b strings.Builder
	fprintSchemes(&b, l.Summarize())
	fprintShadowRanking(&b, l.ShadowRanking())
	_, err := io.WriteString(w, b.String())
	return err
}

// fprintSchemes renders the per-scheme counterfactual table, cheapest first.
func fprintSchemes(b *strings.Builder, s *Summary) {
	if len(s.Schemes) == 0 {
		return
	}
	fmt.Fprintf(b, "counterfactual cost of always forcing a scheme (vs the optimum; lower is better):\n")
	fmt.Fprintf(b, "  %-12s %14s %8s %8s %9s %7s\n", "scheme", "regret (s)", "chosen", "exec", "unpriced", "absent")
	for _, st := range s.Schemes {
		reg := fmt.Sprintf("%.6f", st.RegretSeconds)
		if math.IsInf(st.RegretSeconds, 0) {
			reg = "+Inf"
		}
		fmt.Fprintf(b, "  %-12s %14s %8d %8d %9d %7d\n",
			st.Scheme, reg, st.Chosen, st.Executed, st.Unpriced, st.Absent)
	}
}

// fprintShadowRanking renders the single-run counterfactual law ranking.
func fprintShadowRanking(b *strings.Builder, ranks []ShadowRank) {
	if len(ranks) == 0 {
		return
	}
	fmt.Fprintf(b, "shadow ranking (single-run counterfactual replay; attainment desc, GPU-seconds asc):\n")
	fmt.Fprintf(b, "  %4s %-14s %12s %14s %8s %10s\n", "rank", "law", "est attain", "est GPU-s", "charged", "completed")
	for _, r := range ranks {
		fmt.Fprintf(b, "  %4d %-14s %11.1f%% %14.1f %8d %10d\n",
			r.Rank, r.Law, r.EstAttainment*100, r.EstGPUSeconds, r.ChargedMisses, r.Completed)
	}
}

// Series names the numbers of the summary's TSV (the golden pin) for the one
// diff (telemetry.DiffSeries) by their TSV names: each scheme's and each
// law's columns as name{scheme="..."} and name{law="..."}, the policy
// switches as switches{signal="..."}, and the totals.
func (s *Summary) Series() map[string]float64 {
	out := map[string]float64{
		"collective":     float64(s.Collective),
		"scale":          float64(s.Scale),
		"fallbacks":      float64(s.Fallbacks),
		"stalled":        float64(s.Stalled),
		"regret_seconds": s.TotalRegretSeconds,
	}
	for _, st := range s.Schemes {
		out[telemetry.SeriesName("chosen", "scheme", st.Scheme)] = float64(st.Chosen)
		out[telemetry.SeriesName("executed", "scheme", st.Scheme)] = float64(st.Executed)
		out[telemetry.SeriesName("regret_seconds", "scheme", st.Scheme)] = st.RegretSeconds
		out[telemetry.SeriesName("unpriced", "scheme", st.Scheme)] = float64(st.Unpriced)
		out[telemetry.SeriesName("absent", "scheme", st.Scheme)] = float64(st.Absent)
	}
	for _, lw := range s.Laws {
		out[telemetry.SeriesName("scale_out", "law", lw.Law)] = float64(lw.ScaleOut)
		out[telemetry.SeriesName("scale_in", "law", lw.Law)] = float64(lw.ScaleIn)
		out[telemetry.SeriesName("hold", "law", lw.Law)] = float64(lw.Hold)
		out[telemetry.SeriesName("disagree", "law", lw.Law)] = float64(lw.Disagree)
	}
	for _, sw := range s.Switches {
		out[telemetry.SeriesName("switches", "signal", sw.Signal)] = float64(sw.Count)
	}
	if s.Drift != nil {
		out["drift_windows"] = float64(s.Drift.Windows)
		out["drift_attainment"] = s.Drift.Attainment
	}
	return out
}
