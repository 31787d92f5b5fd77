package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestFig7ReportRendering regenerates the Fig. 7 report end to end and
// checks that every system and both workloads appear in the rendered output
// (the artifact cmd/heroserve ships). Skipped under -short: it runs the full
// testbed sweeps.
func TestFig7ReportRendering(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("fig7 sweeps under -short")
	}
	t.Parallel()
	rep, err := Fig7(Env{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{
		"Fig. 7", "chatbot", "summarization",
		"HeroServe", "DistServe", "DS-ATP", "DS-SwitchML",
		"vs DistServe", "SLA attainment",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered Fig. 7 report missing %q", want)
		}
	}
	t.Logf("\n%s", out)
}

// skipUnderRace skips multi-minute full-sweep regression tests when the
// race detector is on: its ~4-10x slowdown pushes them past any reasonable
// CI budget, and the same serving/collective stack is raced by the quick
// determinism, faults, and report tests that do run.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("full sweep skipped under -race (covered by quick tests)")
	}
}
