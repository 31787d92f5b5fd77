package telemetry

import (
	"fmt"
	"io"
)

// WriteOpenMetrics writes the registry in the OpenMetrics 1.0 text exposition
// format: counter families drop their _total suffix in metadata and gain
// _created timestamps (sim-time of child registration), histograms gain
// _created plus per-bucket exemplars carrying the trace ID of the slowest
// sample that landed in each bucket, and the document ends with # EOF.
// Like WriteProm, the output is deterministic: everything is sim-time-stamped
// and sorted, so two identical runs export byte-identical documents.
func (r *Registry) WriteOpenMetrics(w io.Writer) error { return r.writeText(w, true) }

// exemplarSuffix renders a bucket's exemplar (" # {trace_id=...} v ts"), or
// the empty string when the bucket has none.
func exemplarSuffix(h *Histogram, bucket int) string {
	if h.ex == nil || bucket >= len(h.ex) {
		return ""
	}
	e := &h.ex[bucket]
	if e.traceID == "" {
		return ""
	}
	return fmt.Sprintf(" # {%s=\"%s\"} %s %s", exemplarLabel, escapeLabel(e.traceID), FormatFloat(e.v), FormatFloat(e.ts))
}
