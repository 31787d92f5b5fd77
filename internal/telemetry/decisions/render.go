package decisions

import (
	"encoding/json"
	"io"
	"math"
	"strconv"

	"heroserve/internal/telemetry"
)

// flushAt is the size at which WriteJSON hands its buffer to the writer.
// The buffer holds 4 KiB more, so it grows only for a record that large.
const flushAt = 64 << 10

// WriteJSON writes the ledger as a single JSON document, byte for byte what
// encoding/json writes for the record structs: fields in struct order,
// omitempty fields left out when empty, ±Inf and NaN costs as strings, and
// records in append (event-loop) order. The document is rendered by hand and
// handed to w in pieces of about 64 KiB, so a render allocates the same
// whatever the ledger's size. A NaN or infinite value in a plain float field
// (a time, a signal, an outcome) fails the render with encoding/json's error
// before anything is written.
func (l *Ledger) WriteJSON(w io.Writer) error {
	if l == nil {
		l = NewLedger()
	}
	if err := l.check(); err != nil {
		return err
	}
	e := &encoder{w: w, b: make([]byte, 0, flushAt+4<<10)}
	// Every interned string is quoted once.
	e.at = make([]int, 0, len(l.strs)+1)
	for _, s := range l.strs {
		e.at = append(e.at, len(e.strs))
		e.strs = telemetry.AppendJSONString(e.strs, s)
	}
	e.at = append(e.at, len(e.strs))

	m := &l.Meta
	b := append(e.b, `{"meta":{"fleet":`...)
	b = strconv.AppendInt(b, int64(m.Fleet), 10)
	b = append(b, `,"initial_active":`...)
	b = strconv.AppendInt(b, int64(m.InitialActive), 10)
	b = append(b, `,"min_active":`...)
	b = strconv.AppendInt(b, int64(m.MinActive), 10)
	b = append(b, `,"interval":`...)
	b, _ = telemetry.AppendJSONFloat(b, m.Interval)
	b = append(b, `,"gpus_per_instance":`...)
	b = strconv.AppendInt(b, int64(m.GPUsPerInstance), 10)
	b = append(b, `,"sla":`...)
	b = strconv.AppendBool(b, m.SLA)
	b = append(b, `,"end":`...)
	b, _ = telemetry.AppendJSONFloat(b, m.End)
	e.b = append(b, `},"collective":[`...)
	sep := false
	l.coll.each(func(c *chunk[row], r *row) {
		if sep {
			e.b = append(e.b, ',')
		}
		sep = true
		e.collective(l, c, r)
		e.flush(false)
	})
	e.b = append(e.b, `],"scale":[`...)
	sep = false
	l.scale.each(func(_ *chunk[ScaleRecord], r *ScaleRecord) {
		if sep {
			e.b = append(e.b, ',')
		}
		sep = true
		e.scale(r)
		e.flush(false)
	})
	e.b = append(e.b, "]}\n"...)
	e.flush(true)
	return e.err
}

// check returns encoding/json's error for the first value, in document
// order, that JSON cannot hold.
func (l *Ledger) check() error {
	if err := unsupported(l.Meta.Interval, l.Meta.End); err != nil {
		return err
	}
	var err error
	l.coll.each(func(_ *chunk[row], r *row) {
		if err == nil {
			err = unsupported(r.t)
		}
	})
	l.scale.each(func(_ *chunk[ScaleRecord], r *ScaleRecord) {
		if err != nil {
			return
		}
		sg := &r.Signals
		err = unsupported(r.T, sg.Occupancy, sg.KVUtilization, sg.LongestIdle, sg.TTFT, sg.TPOT)
		if o := r.Outcome; o != nil && err == nil {
			err = unsupported(o.TTFT, o.TPOT, o.Horizon)
		}
	})
	return err
}

// unsupported returns encoding/json's error for the first NaN or infinity
// among fs.
func unsupported(fs ...float64) error {
	for _, f := range fs {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			_, err := json.Marshal(f)
			return err
		}
	}
	return nil
}

// encoder is one WriteJSON render: the pending bytes, the first write error
// and the quoted interned strings (string i is strs[at[i]:at[i+1]]).
type encoder struct {
	w    io.Writer
	b    []byte
	err  error
	strs []byte
	at   []int
}

// flush hands the buffer to the writer once it holds flushAt bytes, or
// always when force is set. After a write error it only drops bytes.
func (e *encoder) flush(force bool) {
	if !force && len(e.b) < flushAt {
		return
	}
	if e.err == nil {
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
}

// str appends interned string id, quoted.
func (e *encoder) str(b []byte, id uint32) []byte {
	return append(b, e.strs[e.at[id]:e.at[id+1]]...)
}

// collective appends r's CollectiveRecord object.
func (e *encoder) collective(l *Ledger, c *chunk[row], r *row) {
	tab := &l.tables[r.table]
	b := append(e.b, `{"t":`...)
	b, _ = telemetry.AppendJSONFloat(b, r.t)
	b = append(b, `,"group":`...)
	b = e.str(b, tab.group)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, r.bytes, 10)
	b = append(b, `,"steps":`...)
	b = strconv.AppendInt(b, int64(r.steps), 10)
	b = append(b, `,"candidates":`...)
	exec := [2]int{-1, -1} // the executed candidate's cost_seconds, in b
	if tab.nilCands {
		b = append(b, "null"...)
	} else {
		costs := tab.costs(c, r)
		b = append(b, '[')
		for i := range tab.labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"label":`...)
			b = e.str(b, tab.labels[i])
			b = append(b, `,"scheme":`...)
			b = e.str(b, tab.schemes[i])
			b = append(b, `,"cost_j":`...)
			b = telemetry.JSONFloat(costs[2*i]).AppendJSON(b)
			b = append(b, `,"cost_seconds":`...)
			start := len(b)
			b = telemetry.JSONFloat(costs[2*i+1]).AppendJSON(b)
			if i == int(r.executed) {
				exec = [2]int{start, len(b)}
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"chosen":`...)
	b = strconv.AppendInt(b, int64(r.chosen), 10)
	b = append(b, `,"best":`...)
	b = strconv.AppendInt(b, int64(r.best), 10)
	b = append(b, `,"executed":`...)
	b = strconv.AppendInt(b, int64(r.executed), 10)
	b = append(b, `,"scheme":`...)
	b = e.str(b, r.scheme)
	b = append(b, `,"reason":`...)
	b = e.str(b, r.reason)
	b = append(b, `,"actual_seconds":`...)
	if exec[0] >= 0 && math.Float64bits(r.actual) == math.Float64bits(tab.costs(c, r)[2*r.executed+1]) {
		// The audited cost is the executed candidate's cost_seconds, bit
		// for bit (OnlinePolicy.ledger computes both as eval[exec]*w), so
		// its encoding is copied rather than formatted again.
		b = append(b, b[exec[0]:exec[1]]...)
	} else {
		b = telemetry.JSONFloat(r.actual).AppendJSON(b)
	}
	b = append(b, `,"regret_seconds":`...)
	b = telemetry.JSONFloat(r.regret).AppendJSON(b)
	if r.stalled {
		b = append(b, `,"stalled":true`...)
	}
	e.b = append(b, '}')
}

// scale appends r's ScaleRecord object.
func (e *encoder) scale(r *ScaleRecord) {
	b := append(e.b, `{"t":`...)
	b, _ = telemetry.AppendJSONFloat(b, r.T)
	b = append(b, `,"primary":`...)
	b = telemetry.AppendJSONString(b, r.Primary)
	b = append(b, `,"decision":`...)
	b = telemetry.AppendJSONString(b, r.Decision)
	b = append(b, `,"applied":`...)
	b = telemetry.AppendJSONString(b, r.Applied)
	b = append(b, `,"instance":`...)
	b = strconv.AppendInt(b, int64(r.Instance), 10)
	sg := &r.Signals
	b = append(b, `,"signals":{"backlog":`...)
	b = strconv.AppendInt(b, int64(sg.Backlog), 10)
	b = append(b, `,"active":`...)
	b = strconv.AppendInt(b, int64(sg.Active), 10)
	b = append(b, `,"activating":`...)
	b = strconv.AppendInt(b, int64(sg.Activating), 10)
	b = append(b, `,"reserves":`...)
	b = strconv.AppendInt(b, int64(sg.Reserves), 10)
	b = append(b, `,"occupancy":`...)
	b, _ = telemetry.AppendJSONFloat(b, sg.Occupancy)
	b = append(b, `,"kv_utilization":`...)
	b, _ = telemetry.AppendJSONFloat(b, sg.KVUtilization)
	b = append(b, `,"longest_idle":`...)
	b, _ = telemetry.AppendJSONFloat(b, sg.LongestIdle)
	b = append(b, `,"ttft":`...)
	b, _ = telemetry.AppendJSONFloat(b, sg.TTFT)
	b = append(b, `,"tpot":`...)
	b, _ = telemetry.AppendJSONFloat(b, sg.TPOT)
	b = append(b, `,"latency_primed":`...)
	b = strconv.AppendBool(b, sg.LatencyPrimed)
	if len(sg.ActiveAlerts) > 0 {
		b = append(b, `,"active_alerts":[`...)
		for i, a := range sg.ActiveAlerts {
			if i > 0 {
				b = append(b, ',')
			}
			b = telemetry.AppendJSONString(b, a)
		}
		b = append(b, ']')
	}
	if sg.DominantStage != "" {
		b = append(b, `,"dominant_stage":`...)
		b = telemetry.AppendJSONString(b, sg.DominantStage)
	}
	b = append(b, '}')
	b = optString(b, `,"law":`, r.Law)
	b = optString(b, `,"switch":`, r.Switch)
	b = optString(b, `,"switch_signal":`, r.SwitchSignal)
	if r.BatchTarget != 0 {
		b = append(b, `,"batch_target":`...)
		b = strconv.AppendInt(b, int64(r.BatchTarget), 10)
	}
	b = append(b, `,"shadows":`...)
	if r.Shadows == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Shadows {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"law":`...)
			b = telemetry.AppendJSONString(b, r.Shadows[i].Law)
			b = append(b, `,"decision":`...)
			b = telemetry.AppendJSONString(b, r.Shadows[i].Decision)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"disagree":`...)
	b = strconv.AppendInt(b, int64(r.Disagree), 10)
	if o := r.Outcome; o != nil {
		b = append(b, `,"outcome":{"completed":`...)
		b = strconv.AppendInt(b, int64(o.Completed), 10)
		b = append(b, `,"met":`...)
		b = strconv.AppendInt(b, int64(o.Met), 10)
		b = append(b, `,"ttft":`...)
		b, _ = telemetry.AppendJSONFloat(b, o.TTFT)
		b = append(b, `,"tpot":`...)
		b, _ = telemetry.AppendJSONFloat(b, o.TPOT)
		b = append(b, `,"horizon":`...)
		b, _ = telemetry.AppendJSONFloat(b, o.Horizon)
		b = append(b, '}')
	}
	e.b = append(b, '}')
}

// optString appends key and s, quoted, unless s is empty (omitempty).
func optString(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return telemetry.AppendJSONString(append(b, key...), s)
}
