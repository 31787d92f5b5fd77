package perf

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"heroserve/internal/telemetry"
)

// TestFprintClampsOutOfRangePhases: a phase far longer than the wall clock
// renders as a full bar instead of overflowing the bar width.
func TestFprintClampsOutOfRangePhases(t *testing.T) {
	r := &Report{Schema: Schema, WallSeconds: 1}
	r.Phases.ReallocSeconds = 1e300
	var b strings.Builder
	if err := r.Fprint(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), " "+strings.Repeat("#", 30)+"\n") {
		t.Errorf("want a full 30-wide water-filling bar:\n%s", b.String())
	}
}

// TestReportSeriesDiff: a serve -out perf report's self-diff changes
// nothing, and moving one field moves exactly its series.
func TestReportSeriesDiff(t *testing.T) {
	data, err := os.ReadFile("testdata/report.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := ReadReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if d := telemetry.DiffSeries(base.Series(), base.Series()); len(d.Changed) != 0 || d.Equal == 0 {
		t.Errorf("self-diff = %+v, want 0 changed and some equal", d)
	}
	moved := *base
	moved.Netsim.Reallocs++
	d := telemetry.DiffSeries(base.Series(), moved.Series())
	if len(d.Changed) != 1 || d.Changed[0].Series != "netsim.reallocs" || d.Changed[0].Delta != 1 ||
		len(d.OnlyA)+len(d.OnlyB) != 0 {
		t.Errorf("diff after one more reallocation = %+v, want netsim.reallocs +1 alone", d)
	}
}

// FuzzReadReport: ReadReport never panics; a report it accepts renders
// without panicking, diffs against itself with no change, and survives WriteJSON→ReadReport→WriteJSON byte for
// byte. The seed report is a serve -out perf.json.
func FuzzReadReport(f *testing.F) {
	seed, err := os.ReadFile("testdata/report.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"schema":"heroserve-perf/2","wall_seconds":1,"phases":{"realloc_seconds":1e300}}`))
	f.Add([]byte(`{"schema":"heroserve-perf/2","netsim":{"reallocs":2,"flows_histogram":[{"le":1,"count":18446744073709551615}]},"progress":[{}]}`))
	f.Add([]byte(`{"schema":"bogus"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadReport(data)
		if err != nil {
			return
		}
		if err := r.Fprint(io.Discard); err != nil {
			t.Fatalf("render accepted report: %v", err)
		}
		if d := telemetry.DiffSeries(r.Series(), r.Series()); len(d.Changed) != 0 {
			t.Fatalf("self-diff of an accepted report changed %+v", d.Changed)
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
