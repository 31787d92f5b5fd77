package experiments

import (
	"fmt"
	"strings"
	"testing"

	"heroserve/internal/faults"
	"heroserve/internal/serving"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// fingerprint renders every numeric observable of a run at full float64
// precision. Two runs of the same seed must produce byte-identical
// fingerprints: the simulation is discrete-event with FIFO tie-breaking, so
// any divergence is a determinism bug (typically map-iteration order
// leaking into float accumulation or event scheduling).
func fingerprint(res *serving.Results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s served=%d duration=%v\n", res.PolicyName, res.Served, res.Duration)
	for i, r := range res.Requests {
		fmt.Fprintf(&b, "req%d ttft=%v tpot=%v e2e=%v\n", i, r.TTFT, r.TPOT, r.EndToEnd)
	}
	fmt.Fprintf(&b, "comm=%+v\n", res.Comm)
	for i := range res.KVUtilization {
		s := &res.KVUtilization[i]
		fmt.Fprintf(&b, "kv%d=%s mean=%v\n", i, s.Name, s.Mean())
	}
	fmt.Fprintf(&b, "scale=%d activeGPUs=%v\n", len(res.ScaleEvents), res.ActiveGPUSeconds)
	return b.String()
}

// faultsFingerprint flattens the faults study into a comparable string.
func faultsFingerprint(d *FaultsData) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload=%v sla=%+v rate=%v\n", d.Workload, d.SLA, d.PerGPURate)
	for _, ev := range d.Schedule.Events {
		fmt.Fprintf(&b, "ev %+v\n", ev)
	}
	for _, s := range d.Systems {
		fmt.Fprintf(&b, "sys %+v\n", s)
	}
	return b.String()
}

// chatbotRun is one fig7-shaped serving simulation of the given system on
// the testbed: chatbot workload, bursty replayer traffic, fixed seed.
func chatbotRun(t *testing.T, kind SystemKind, seed int64, sched *faults.Schedule) *serving.Results {
	t.Helper()
	const rate = 0.15 * 16
	g := topology.Testbed()
	in := testbedOPT66B.inputs(g, workload.Chatbot, serving.SLA{TTFT: 2.5, TPOT: 0.15}, rate, seed)
	plan, err := planAtBestLambda(kind, in, rate)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	cfg := runConfig{
		kind:     kind,
		in:       in,
		plan:     plan,
		workload: workload.Chatbot,
		requests: 32,
		rate:     rate,
		seed:     seed,
	}
	cfg.bursts = fig7Bursts(seed, 40)
	cfg.faults = sched
	res, err := Env{}.runOnce(cfg)
	if err != nil {
		t.Fatalf("runOnce: %v", err)
	}
	return res
}

// TestServingRunDeterminism runs the same seeded chatbot simulation twice
// per system and requires byte-identical results.
func TestServingRunDeterminism(t *testing.T) {
	for _, kind := range AllSystems {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			a := fingerprint(chatbotRun(t, kind, 1, nil))
			b := fingerprint(chatbotRun(t, kind, 1, nil))
			if a != b {
				t.Fatalf("same-seed runs diverged:\n%s", firstDiffLine(a, b))
			}
		})
	}
}

// TestNoFaultScheduleMatchesCleanRun arms an empty fault schedule and
// requires the run to be byte-identical to a fault-free one: the injection
// plumbing itself must not perturb the simulation.
func TestNoFaultScheduleMatchesCleanRun(t *testing.T) {
	t.Parallel()
	clean := fingerprint(chatbotRun(t, HeroServe, 1, nil))
	armed := fingerprint(chatbotRun(t, HeroServe, 1, &faults.Schedule{}))
	if clean != armed {
		t.Fatalf("empty fault schedule changed the run:\n%s", firstDiffLine(clean, armed))
	}
}

// TestFaultsExperimentDeterminism runs the full faults study twice with the
// same seed and requires identical structured data, fault schedule included.
func TestFaultsExperimentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("faults study in -short mode")
	}
	t.Parallel()
	d1, err := FaultsExperimentData(Env{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := FaultsExperimentData(Env{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := faultsFingerprint(d1), faultsFingerprint(d2)
	if a != b {
		t.Fatalf("same-seed faults studies diverged:\n%s", firstDiffLine(a, b))
	}
}

// firstDiffLine reports the first line where two fingerprints differ.
func firstDiffLine(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  run1: %s\n  run2: %s", i, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(la), len(lb))
}
