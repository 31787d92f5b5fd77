package critpath

import (
	"fmt"
	"io"
	"sort"

	"heroserve/internal/telemetry"
)

// Report is the aggregate critical-path view of one run: per-stage totals
// across all finalized requests plus the slowest-N requests by end-to-end
// latency. All fields are deterministic for a deterministic event stream.
type Report struct {
	Requests  int                `json:"requests"`
	TTFTTotal map[string]float64 `json:"ttft_total_seconds"`
	E2ETotal  map[string]float64 `json:"e2e_total_seconds"`
	Slowest   []Breakdown        `json:"slowest"`
}

// Report aggregates the analyzer's finalized breakdowns, keeping the topN
// slowest requests (by E2E, ties broken by pid then request ID for
// determinism).
func (a *Analyzer) Report(topN int) *Report {
	r := &Report{
		Requests:  len(a.done),
		TTFTTotal: make(map[string]float64),
		E2ETotal:  make(map[string]float64),
	}
	for _, b := range a.done {
		for s, v := range b.TTFTStages {
			r.TTFTTotal[s] += v
		}
		for s, v := range b.E2EStages {
			r.E2ETotal[s] += v
		}
	}
	slow := append([]Breakdown(nil), a.done...)
	sort.Slice(slow, func(i, j int) bool {
		if slow[i].E2E != slow[j].E2E {
			return slow[i].E2E > slow[j].E2E
		}
		if slow[i].PID != slow[j].PID {
			return slow[i].PID < slow[j].PID
		}
		return slow[i].Req < slow[j].Req
	})
	if topN > 0 && len(slow) > topN {
		slow = slow[:topN]
	}
	r.Slowest = slow
	return r
}

// TTFTSum returns the sum of all per-stage TTFT contributions — by the
// partition identity, equal (within rounding) to the run's total TTFT.
func (r *Report) TTFTSum() float64 { return mapSum(r.TTFTTotal) }

// E2ESum returns the sum of all per-stage E2E contributions.
func (r *Report) E2ESum() float64 { return mapSum(r.E2ETotal) }

func mapSum(m map[string]float64) float64 {
	// Sum in canonical stage order so the result is deterministic (map
	// iteration order is not, and float addition does not commute exactly).
	var s float64
	for _, k := range sortStages(m) {
		s += m[k]
	}
	return s
}

// Fprint writes the report as a deterministic plain-text table: the stage
// breakdown (stage, E2E seconds, share, TTFT seconds) followed by the
// slowest-requests table.
func (r *Report) Fprint(w io.Writer) error {
	e2e := r.E2ESum()
	if _, err := fmt.Fprintf(w, "critical-path breakdown (%d requests, e2e %.6fs, ttft %.6fs)\n",
		r.Requests, e2e, r.TTFTSum()); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-22s %14s %8s %14s\n", "stage", "e2e_s", "share", "ttft_s")
	for _, s := range sortStages(r.E2ETotal) {
		share := 0.0
		if e2e > 0 {
			share = r.E2ETotal[s] / e2e
		}
		fmt.Fprintf(w, "%-22s %14.6f %7.2f%% %14.6f\n", s, r.E2ETotal[s], 100*share, r.TTFTTotal[s])
	}
	if len(r.Slowest) == 0 {
		return nil
	}
	fmt.Fprintf(w, "\nslowest %d requests\n", len(r.Slowest))
	fmt.Fprintf(w, "%-12s %10s %12s %12s  %s\n", "trace_id", "arrival_s", "ttft_s", "e2e_s", "dominant")
	for _, b := range r.Slowest {
		id := b.TraceID
		if id == "" {
			id = fmt.Sprintf("p%d-r%d", b.PID, b.Req)
		}
		dom := b.DominantStage()
		fmt.Fprintf(w, "%-12s %10.4f %12.6f %12.6f  %s (%.6fs)\n",
			id, b.Arrival, b.TTFT, b.E2E, dom, b.E2EStages[dom])
	}
	return nil
}

// Series names the report's numbers for the one diff (telemetry.DiffSeries):
// the request count, each stage's TTFT and E2E total under the collector's
// metric families (the rows the metrics export holds), and the two sums over
// the stages under the names of the JSON report's stage maps.
func (r *Report) Series() map[string]float64 {
	s := map[string]float64{
		"requests":           float64(r.Requests),
		"ttft_total_seconds": r.TTFTSum(),
		"e2e_total_seconds":  r.E2ESum(),
	}
	for stage, v := range r.TTFTTotal {
		s[telemetry.SeriesName(telemetry.TTFTCritPathFamily, "stage", stage)] = v
	}
	for stage, v := range r.E2ETotal {
		s[telemetry.SeriesName(telemetry.E2ECritPathFamily, "stage", stage)] = v
	}
	return s
}
