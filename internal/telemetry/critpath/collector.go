package critpath

import (
	"fmt"
	"io"

	"heroserve/internal/telemetry"
)

// Collector is the live binding of an Analyzer to a telemetry Hub: it taps
// the hub's tracer so every event feeds the analyzer as it is emitted (whether
// or not the tracer streams anywhere — no event retention needed),
// and bumps the aggregate critical-path counters the moment each request
// finalizes.
type Collector struct {
	Analyzer *Analyzer
	metrics  *telemetry.Registry
	// Per-stage counter handles, registered as stages first appear.
	ttft, e2e map[string]*telemetry.Counter
}

// Bind attaches a fresh collector to the hub. Call it BEFORE the serving run
// starts emitting (in particular before the run's BeginProcess) so the tap
// observes the process_name metadata. Binding replaces any previous tap on
// the hub's tracer. Returns nil on a hub with no tracer.
func Bind(h *telemetry.Hub) *Collector {
	if h == nil || h.Trace == nil {
		return nil
	}
	c := &Collector{
		Analyzer: New(),
		metrics:  h.Metrics,
		ttft:     make(map[string]*telemetry.Counter),
		e2e:      make(map[string]*telemetry.Counter),
	}
	c.Analyzer.OnFinalize(c.record)
	h.Trace.Tap(c.Analyzer.Feed)
	return c
}

// record bumps the per-stage critical-path counters for one finalized
// request, in the canonical stage order the analyzer left for its OnFinalize
// callbacks. Registry children are registered per stage label as stages
// first appear, so runs without a metrics registry still get breakdowns.
func (c *Collector) record(b Breakdown) {
	if c.metrics == nil {
		return
	}
	for _, s := range c.Analyzer.ttftOrder {
		c.counter(c.ttft, telemetry.TTFTCritPathFamily,
			"Critical-path decomposition of time-to-first-token, by stage; the per-stage totals sum to ttft_seconds_sum.",
			s).Add(b.TTFTStages[s])
	}
	for _, s := range c.Analyzer.e2eOrder {
		c.counter(c.e2e, telemetry.E2ECritPathFamily,
			"Critical-path decomposition of request end-to-end latency, by stage; the per-stage totals sum to e2e_seconds_sum.",
			s).Add(b.E2EStages[s])
	}
}

// counter returns the family's counter for stage from the handle cache,
// registering it on the stage's first appearance.
func (c *Collector) counter(cache map[string]*telemetry.Counter, family, help, stage string) *telemetry.Counter {
	ctr, ok := cache[stage]
	if !ok {
		ctr = c.metrics.Counter(family, help, []string{"stage"}, stage)
		cache[stage] = ctr
	}
	return ctr
}

// Unbind removes the collector's tap from the tracer.
func (c *Collector) Unbind(h *telemetry.Hub) {
	if c == nil || h == nil || h.Trace == nil {
		return
	}
	h.Trace.Tap(nil)
}

// traceDoc mirrors the Tracer export format for offline analysis.
type traceDoc struct {
	TraceEvents []telemetry.Event `json:"traceEvents"`
}

// decodeTrace parses a Chrome trace-event JSON document, with nothing but
// whitespace after it, into its events.
func decodeTrace(r io.Reader) ([]telemetry.Event, error) {
	var doc traceDoc
	if err := telemetry.DecodeJSON(r, &doc); err != nil {
		return nil, fmt.Errorf("critpath: parse trace: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return nil, ErrNoEvents
	}
	return doc.TraceEvents, nil
}
