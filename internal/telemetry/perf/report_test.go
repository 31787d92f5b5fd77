package perf

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestFprintClampsOutOfRangePhases: a phase far longer than the wall clock
// renders as a full bar instead of overflowing the bar width.
func TestFprintClampsOutOfRangePhases(t *testing.T) {
	r := &Report{Schema: Schema, WallSeconds: 1}
	r.Phases.EngineSeconds = 1e300
	var b strings.Builder
	if err := r.Fprint(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), " "+strings.Repeat("#", 30)+"\n") {
		t.Errorf("want a full 30-wide engine bar:\n%s", b.String())
	}
}

// FuzzReadReport: ReadReport never panics; a report it accepts renders
// without panicking and survives WriteJSON→ReadReport→WriteJSON byte for
// byte. The seed report is a serve -perf-out export.
func FuzzReadReport(f *testing.F) {
	seed, err := os.ReadFile("testdata/report.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"schema":"heroserve-perf/1","wall_seconds":1,"phases":{"engine_seconds":1e300}}`))
	f.Add([]byte(`{"schema":"heroserve-perf/1","netsim":{"reallocs":2,"flows_histogram":[{"le":1,"count":18446744073709551615}]},"progress":[{}]}`))
	f.Add([]byte(`{"schema":"bogus"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadReport(data)
		if err != nil {
			return
		}
		if err := r.Fprint(io.Discard); err != nil {
			t.Fatalf("render accepted report: %v", err)
		}
		if err := FprintDiff(io.Discard, r, r); err != nil {
			t.Fatalf("diff accepted report: %v", err)
		}
		var first, second bytes.Buffer
		if err := r.WriteJSON(&first); err != nil {
			t.Fatalf("write accepted report: %v", err)
		}
		again, err := ReadReport(first.Bytes())
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
