package decisions

import (
	"bytes"
	"io"
	"math"
	"os"
	"testing"

	"heroserve/internal/telemetry"
)

// FuzzReadJSON: ReadJSON never panics; every reader hstat runs over a ledger
// it accepts renders without panicking; its self-diff changes nothing; an
// accepted ledger's WriteJSON bytes equal one encoding/json Encode of its
// whole document (encodeWhole), its summary equals the per-record
// reference's (refSummarize), and its bytes survive
// WriteJSON→ReadJSON→WriteJSON byte for byte; and one more pick at a NaN
// time fails WriteJSON with encoding/json's error. The seed ledger is a small
// serve -autoscale -scale-policy adaptive export: the newest two records of
// each kind.
func FuzzReadJSON(f *testing.F) {
	seed, err := os.ReadFile("testdata/ledger.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	var buf bytes.Buffer
	if err := sampleLedger().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"collective":[{"candidates":[{"label":"r0","scheme":"ring"}],"chosen":-1}]}`))
	f.Add([]byte(`{"meta":{"fleet":-2},"scale":[{"t":1,"applied":"deactivate","shadows":[{"law":"a","decision":"scale_out"},{"law":"a"}],"outcome":{"completed":3,"met":9,"horizon":-1}},{"t":0,"shadows":null}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"meta":{"end":1},"collective":[{"t":1,"group":"<a&b>/\"é\"/0","candidates":[{"label":"r<0>","scheme":"ring&co","cost_j":1,"cost_seconds":0.1}],"scheme":"\u2028","reason":"table","stage_signal":"kv\u0000"}]}`))
	f.Add([]byte(`{"collective":[{"t":2,"candidates":[{"label":"a","scheme":"ring","cost_j":"+Inf","cost_seconds":"-Inf"},{"label":"b","scheme":"ina-sync","cost_j":"NaN","cost_seconds":"NaN"}],"actual_seconds":"NaN","regret_seconds":"+Inf"}]}`))
	f.Add([]byte(`{"meta":{"interval":1e-7,"end":1e21},"collective":[{"t":-0,"bytes":-1,"candidates":[{"label":"x","scheme":"ring","cost_j":1e-7,"cost_seconds":-0}],"actual_seconds":1e21,"regret_seconds":-0}],"scale":[{"t":1e-300,"signals":{"occupancy":-0,"ttft":1e21}}]}`))
	f.Add([]byte(`{"scale":[{"t":1,"shadows":null},{"t":2,"shadows":[]},{"t":3,"shadows":[{"law":"a","decision":"hold"}]}],"collective":[{"candidates":null},{"candidates":[]}]}`))
	f.Add([]byte(`{"scale":[{"t":1,"signals":{"active_alerts":[]},"shadows":[]},{"t":2,"signals":{"active_alerts":["ttft>1s"]},"outcome":null},{"t":3,"outcome":{"completed":1}}]}`))
	f.Add([]byte(`{"collective":[{"t":NaN,"candidates":[{"label":"r","scheme":"ring"}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		s := l.Summarize()
		l.ShadowRanking()
		for _, render := range []func(io.Writer) error{l.Fprint, l.FprintRegret, s.WriteTSV} {
			if err := render(io.Discard); err != nil {
				t.Fatalf("render accepted ledger: %v", err)
			}
		}
		if d := telemetry.DiffSeries(s.Series(), s.Series()); len(d.Changed) != 0 {
			t.Fatalf("self-diff of an accepted ledger changed %+v", d.Changed)
		}
		var first, second bytes.Buffer
		if err := l.WriteJSON(&first); err != nil {
			t.Fatalf("write accepted ledger: %v", err)
		}
		doc, err := readDoc(data)
		if err != nil {
			t.Fatalf("ReadJSON accepted what encoding/json rejects: %v", err)
		}
		want, err := encodeWhole(doc)
		if err != nil {
			t.Fatalf("reference encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), want) {
			t.Fatalf("WriteJSON differs from encoding/json:\ngot  %s\nwant %s", first.Bytes(), want)
		}
		checkSummary(t, l, doc.Collective)
		again, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-read: %v\n%s", err, first.Bytes())
		}
		if err := again.WriteJSON(&second); err != nil {
			t.Fatalf("re-write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the encoding:\n%s\n%s", first.Bytes(), second.Bytes())
		}
		l.AddCollective(CollectiveRecord{T: math.NaN()})
		_, wantErr := encodeWhole(docOf(l))
		if err := l.WriteJSON(io.Discard); err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("NaN time: WriteJSON error %v, encoding/json %v", err, wantErr)
		}
	})
}
