package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// ContentTypeOpenMetrics is the media type of the OpenMetrics text exposition,
// used for content negotiation on the daemon's /metrics endpoint.
const ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// ContentTypeProm is the classic Prometheus text exposition media type.
const ContentTypeProm = "text/plain; version=0.0.4; charset=utf-8"

// WriteOpenMetrics writes the registry in the OpenMetrics 1.0 text exposition
// format: counter families drop their _total suffix in metadata and gain
// _created timestamps (sim-time of child registration), histograms gain
// _created plus per-bucket exemplars carrying the trace ID of the slowest
// sample that landed in each bucket, and the document ends with # EOF.
// Like WriteProm, the output is deterministic: everything is sim-time-stamped
// and sorted, so two identical runs export byte-identical documents.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	now := r.clock()
	var b strings.Builder
	for _, name := range names {
		f := r.fams[name]
		fam := name
		if f.kind == kindCounter {
			// OpenMetrics counters are named without the _total suffix; the
			// suffix belongs to the sample, not the family.
			fam = strings.TrimSuffix(name, "_total")
		}
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		fmt.Fprintf(&b, "# HELP %s %s\n", fam, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam, f.kind)
		var timeavg strings.Builder
		for _, key := range keys {
			c := f.childs[key]
			ls := labelString(f.labels, c.values)
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s_total%s %s\n", fam, ls, FormatFloat(c.ctr.v))
				fmt.Fprintf(&b, "%s_created%s %s\n", fam, ls, FormatFloat(c.created))
			case kindGauge:
				c.gauge.tw.Advance(now)
				fmt.Fprintf(&b, "%s%s %s\n", fam, ls, FormatFloat(c.gauge.tw.Value()))
				fmt.Fprintf(&timeavg, "%s_timeavg%s %s\n", fam, ls, FormatFloat(c.gauge.tw.Mean()))
			case kindHistogram:
				var cum uint64
				for i, ub := range f.buckets {
					cum += c.hist.counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d%s\n", fam,
						labelString(append(f.labels, "le"), append(c.values, FormatFloat(ub))),
						cum, exemplarSuffix(c.hist, i))
				}
				fmt.Fprintf(&b, "%s_bucket%s %d%s\n", fam,
					labelString(append(f.labels, "le"), append(c.values, "+Inf")),
					c.hist.n, exemplarSuffix(c.hist, len(f.buckets)))
				fmt.Fprintf(&b, "%s_sum%s %s\n", fam, ls, FormatFloat(c.hist.sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", fam, ls, c.hist.n)
				fmt.Fprintf(&b, "%s_created%s %s\n", fam, ls, FormatFloat(c.created))
			}
		}
		if timeavg.Len() > 0 {
			fmt.Fprintf(&b, "# HELP %s_timeavg Time-weighted mean of %s over the run.\n", fam, fam)
			fmt.Fprintf(&b, "# TYPE %s_timeavg gauge\n", fam)
			b.WriteString(timeavg.String())
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

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
