package decisions

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
)

// bufSize is the most WriteJSON hands its writer at once.
const bufSize = 64 << 10

// document is the ledger's JSON form: what WriteJSON writes and ReadJSON
// decodes.
type document struct {
	Meta       ScaleMeta          `json:"meta"`
	Collective []CollectiveRecord `json:"collective"`
	Scale      []ScaleRecord      `json:"scale"`
}

// WriteJSON writes the ledger as its document, records in append
// (event-loop) order, byte for byte what encoding/json writes for the whole
// document. The records are encoded one at a time and handed to w in pieces
// of at most bufSize, so a render holds one record's encoding, not the
// document's. A NaN or infinite value in a plain float field (a time, a
// signal, an outcome) fails the render with encoding/json's error before
// anything is written.
func (l *Ledger) WriteJSON(w io.Writer) error {
	if l == nil {
		l = NewLedger()
	}
	if err := l.check(); err != nil {
		return err
	}
	// The document with empty lists is the framing: each list's records go
	// between its brackets. Meta holds no list, so the first [] is the
	// collective one and the last the scale one.
	frame, err := json.Marshal(document{Meta: l.Meta, Collective: []CollectiveRecord{}, Scale: []ScaleRecord{}})
	if err != nil {
		return err
	}
	coll, scale := bytes.Index(frame, []byte("[]"))+1, bytes.LastIndex(frame, []byte("[]"))+1

	bw := bufio.NewWriterSize(w, bufSize)
	var rec bytes.Buffer
	enc := json.NewEncoder(&rec)
	n := 0 // records written to the current list
	put := func(v any) {
		if err != nil {
			return
		}
		rec.Reset()
		if n > 0 {
			rec.WriteByte(',')
		}
		n++
		if err = enc.Encode(v); err == nil {
			bw.Write(rec.Bytes()[:rec.Len()-1]) // less Encode's newline
		}
	}
	bw.Write(frame[:coll])
	l.coll.each(func(c *chunk[row], r *row) { put(l.record(c, r)) })
	bw.Write(frame[coll:scale])
	n = 0
	l.scale.each(func(_ *chunk[ScaleRecord], r *ScaleRecord) { put(r) })
	bw.Write(frame[scale:])
	bw.WriteByte('\n')
	if err != nil {
		return err
	}
	return bw.Flush()
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
