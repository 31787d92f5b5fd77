package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"heroserve/internal/sim"
)

// File is the perf report's name in a run bundle (serve -out), where hstat
// perf finds it. It holds one rendering of Report.WriteJSON.
const File = "perf.json"

// Schema identifies the perf report's JSON layout; bump on incompatible
// change so hstat perf can reject files it does not understand.
const Schema = "heroserve-perf/2"

// Phases is the part of one run's wall-clock the sampler can attribute.
// Realloc is the water-filling fixed points, a scaled estimate from the
// sampled reallocation subset; Self is the observatory's own tax (sampling
// boundaries), measured directly. The rest of the wall — event loop, queue
// operations and serving callbacks — is not split: the bench harness times
// every callback for that instead of extrapolating from a sample.
type Phases struct {
	ReallocSeconds float64 `json:"realloc_seconds"`
	SelfSeconds    float64 `json:"self_seconds"`
	// SelfFraction is SelfSeconds over total wall: the observatory's
	// measured share of the run it was observing.
	SelfFraction float64 `json:"self_fraction"`
}

// QueueReport combines the final event-queue snapshot with the high-water
// marks observed at sample boundaries across the run.
type QueueReport struct {
	Final          sim.QueueStats `json:"final"`
	PeakLive       int            `json:"peak_live"`
	PeakTombstones int            `json:"peak_tombstones"`
}

// HistBucket is one bucket of the component-size histogram: Count
// reallocations touched a component of at most Le flows (the last bucket is
// the ≥ overflow).
type HistBucket struct {
	Le    int    `json:"le"`
	Count uint64 `json:"count"`
}

// NetsimReport summarizes the water-filling work the run performed. The
// component-size distribution is the observatory's headline for the
// incremental allocator: the further its mass sits below the active flow
// count, the more work the fast path avoided versus a global recomputation.
type NetsimReport struct {
	Reallocs        uint64       `json:"reallocs"`
	SampledReallocs uint64       `json:"sampled_reallocs"`
	CompLinksTotal  uint64       `json:"component_links_total"`
	CompFlowsTotal  uint64       `json:"component_flows_total"`
	RoundsTotal     uint64       `json:"rounds_total"`
	MeanCompFlows   float64      `json:"mean_component_flows"`
	MaxCompFlows    int          `json:"max_component_flows"`
	MaxCompLinks    int          `json:"max_component_links"`
	MeanRounds      float64      `json:"mean_rounds"`
	FlowsHistogram  []HistBucket `json:"flows_histogram"`
}

// Report is one run's rendered perf observation: a run bundle's perf.json
// and hstat perf's input. All wall-clock derived fields are
// nondeterministic by nature, which is why the report lives strictly outside
// every golden surface.
type Report struct {
	Schema        string  `json:"schema"`
	System        string  `json:"system,omitempty"`
	WallSeconds   float64 `json:"wall_seconds"`
	SimSeconds    float64 `json:"sim_seconds"`
	WallPerSim    float64 `json:"wall_per_sim_second"`
	Events        uint64  `json:"events"`
	SampledEvents uint64  `json:"sampled_events"`
	SampleEvery   int     `json:"sample_every"`
	EventsPerSec  float64 `json:"events_per_second"`

	Phases   Phases          `json:"phases"`
	Queue    QueueReport     `json:"queue"`
	Netsim   NetsimReport    `json:"netsim"`
	Progress []ProgressPoint `json:"progress"`
}

// Report renders the sampler's accumulated state. system labels the report
// (e.g. the CLI system id). Calling it before Finish renders an in-flight
// report against the current wall clock and sim-time.
func (s *Sampler) Report(system string) *Report {
	wallEnd, simEnd := s.wallEnd, s.simEnd
	if wallEnd == 0 { // not finished: snapshot now
		wallEnd = s.now()
		simEnd = s.simNow
	}
	wallNS := wallEnd - s.wallStart
	if wallNS < 0 {
		wallNS = 0
	}
	wall := float64(wallNS) / 1e9
	simAdv := simEnd - s.simStart
	r := &Report{
		Schema:        Schema,
		System:        system,
		WallSeconds:   wall,
		SimSeconds:    simAdv,
		Events:        s.events,
		SampledEvents: s.sampledEvents,
		SampleEvery:   s.every,
	}
	if simAdv > 0 {
		r.WallPerSim = wall / simAdv
	}
	if wall > 0 {
		r.EventsPerSec = float64(s.events) / wall
	}

	// The sampled reallocations' mean cost extrapolates to all of them.
	r.Phases.SelfSeconds = float64(s.selfNS) / 1e9
	if s.sampledReallocs > 0 {
		r.Phases.ReallocSeconds = float64(s.sampledReallocNS) / float64(s.sampledReallocs) * float64(s.reallocs) / 1e9
	}
	if wall > 0 {
		r.Phases.SelfFraction = r.Phases.SelfSeconds / wall
	}

	r.Queue = QueueReport{
		PeakLive:       s.peakLive,
		PeakTombstones: s.peakTombstones,
	}
	if s.eng != nil {
		r.Queue.Final = s.eng.QueueStats()
	}

	n := NetsimReport{
		Reallocs:        s.reallocs,
		SampledReallocs: s.sampledReallocs,
		CompLinksTotal:  s.compLinks,
		CompFlowsTotal:  s.compFlows,
		RoundsTotal:     s.compRounds,
		MaxCompFlows:    s.maxCompFlows,
		MaxCompLinks:    s.maxCompLinks,
	}
	if s.reallocs > 0 {
		n.MeanCompFlows = float64(s.compFlows) / float64(s.reallocs)
		n.MeanRounds = float64(s.compRounds) / float64(s.reallocs)
	}
	n.FlowsHistogram = make([]HistBucket, 0, flowHistBuckets)
	for i, c := range s.flowHist {
		n.FlowsHistogram = append(n.FlowsHistogram, HistBucket{Le: 1 << i, Count: c})
	}
	r.Netsim = n

	r.Progress = append([]ProgressPoint(nil), s.points...)
	return r
}

// WriteJSON writes the report as indented JSON, the perf.json format.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses and validates one perf report document.
func ReadReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: bad report: %w", err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("perf: unknown schema %q (want %q)", r.Schema, Schema)
	}
	return &r, nil
}

// Fprint renders the human-readable report. The "events/s" and "wall-seconds
// per sim-second" spellings are load-bearing: scripts/ci.sh greps for them as
// the perf-smoke contract.
func (r *Report) Fprint(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "perf report: system=%s (sampled 1-in-%d)\n", orDash(r.System), r.SampleEvery)
	fmt.Fprintf(&b, "wall %.3fs for %.2f sim-seconds; wall-seconds per sim-second %.6f\n",
		r.WallSeconds, r.SimSeconds, r.WallPerSim)
	fmt.Fprintf(&b, "events %d (%.3g events/s); sampled %d\n", r.Events, r.EventsPerSec, r.SampledEvents)

	fmt.Fprintf(&b, "phase split of wall-clock:\n")
	phases := []struct {
		name string
		sec  float64
	}{
		{"netsim water-filling", r.Phases.ReallocSeconds},
		{"observatory self", r.Phases.SelfSeconds},
	}
	for _, p := range phases {
		fmt.Fprintf(&b, "  %-22s %8.4fs  %5.1f%%  %s\n",
			p.name, p.sec, pct(p.sec, r.WallSeconds), bar(p.sec, r.WallSeconds, 30))
	}

	q := r.Queue
	fmt.Fprintf(&b, "event queue: peak live %d, peak tombstones %d\n", q.PeakLive, q.PeakTombstones)
	fmt.Fprintf(&b, "  lifetime: %d cancels, %d compactions\n", q.Final.Cancelled, q.Final.Compactions)

	n := r.Netsim
	fmt.Fprintf(&b, "netsim: %d reallocations; mean component %.2f flows / %.2f rounds (max %d flows, %d links)\n",
		n.Reallocs, n.MeanCompFlows, n.MeanRounds, n.MaxCompFlows, n.MaxCompLinks)
	if n.Reallocs > 0 {
		fmt.Fprintf(&b, "component-size distribution (flows touched per reallocation):\n")
		var peak uint64
		for _, h := range n.FlowsHistogram {
			if h.Count > peak {
				peak = h.Count
			}
		}
		for i, h := range n.FlowsHistogram {
			if h.Count == 0 {
				continue
			}
			label := fmt.Sprintf("<=%d", h.Le)
			if i == len(n.FlowsHistogram)-1 {
				label = fmt.Sprintf(">=%d", h.Le)
			}
			fmt.Fprintf(&b, "  %-7s %9d  %s\n", label, h.Count, bar(float64(h.Count), float64(peak), 30))
		}
	}
	if len(r.Progress) > 0 {
		last := r.Progress[len(r.Progress)-1]
		fmt.Fprintf(&b, "progress curve: %d points to sim %.2fs / wall %.3fs\n",
			len(r.Progress), last.SimSeconds, last.WallSeconds)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Series names the report's measured scalars for the one diff
// (telemetry.DiffSeries) by their JSON keys, nested ones as dotted paths; the
// sampler's own counts are left out. Wall-clock numbers are noisy by nature,
// so a diff of two reports shows ratios, not verdicts.
func (r *Report) Series() map[string]float64 {
	return map[string]float64{
		"wall_seconds":                r.WallSeconds,
		"sim_seconds":                 r.SimSeconds,
		"wall_per_sim_second":         r.WallPerSim,
		"events":                      float64(r.Events),
		"events_per_second":           r.EventsPerSec,
		"phases.realloc_seconds":      r.Phases.ReallocSeconds,
		"phases.self_seconds":         r.Phases.SelfSeconds,
		"queue.peak_live":             float64(r.Queue.PeakLive),
		"queue.peak_tombstones":       float64(r.Queue.PeakTombstones),
		"netsim.reallocs":             float64(r.Netsim.Reallocs),
		"netsim.mean_component_flows": r.Netsim.MeanCompFlows,
		"netsim.max_component_flows":  float64(r.Netsim.MaxCompFlows),
		"netsim.max_component_links":  float64(r.Netsim.MaxCompLinks),
		"netsim.mean_rounds":          r.Netsim.MeanRounds,
	}
}

func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return part / whole * 100
}

func bar(part, whole float64, width int) string {
	if whole <= 0 || part <= 0 {
		return ""
	}
	// Clamp in float: a part far beyond whole would overflow the int.
	frac := part / whole
	if !(frac < 1) {
		frac = 1
	}
	return strings.Repeat("#", int(frac*float64(width)))
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
