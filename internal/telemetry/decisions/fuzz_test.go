package decisions

import (
	"bytes"
	"io"
	"os"
	"testing"

	"heroserve/internal/telemetry"
)

// FuzzReadJSON: ReadJSON never panics; every reader hstat runs over a ledger
// it accepts renders without panicking; its self-diff changes nothing; and an
// accepted ledger survives WriteJSON→ReadJSON→WriteJSON byte for byte. The seed ledger is a
// serve -autoscale -scale-policy adaptive -max-decisions 2 export.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		s := l.Summarize()
		l.ShadowRanking()
		l.Filter("", "ring", 0, 0)
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
	})
}
