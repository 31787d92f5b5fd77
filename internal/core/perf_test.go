package core

import (
	"bytes"
	"testing"

	"heroserve/internal/serving"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/perf"
	"heroserve/internal/workload"
)

// purityRun is every deterministic export surface of one telemetered run.
type purityRun struct {
	spans, prom, ledger, alerts []byte
}

// runPerfPurity executes one fully telemetered HeroServe run, optionally with
// the performance observatory armed, and returns every deterministic export
// surface: the streamed span trace, the Prometheus exposition, the
// decision-ledger JSON, and the SLO alert log.
func runPerfPurity(t *testing.T, sampler *perf.Sampler) purityRun {
	t.Helper()
	in := inputs(t)
	hub := telemetry.New()
	var spans bytes.Buffer
	if err := hub.Trace.StreamTo(&spans); err != nil {
		t.Fatal(err)
	}
	sla := in.SLA
	sys, _, _, err := NewSystem(in, nil, serving.Options{
		Telemetry: hub,
		SLA:       &sla,
		Perf:      sampler,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(workload.NewGenerator(workload.Chatbot, 9).Generate(20, 2))
	if err := hub.Trace.CloseStream(); err != nil {
		t.Fatal(err)
	}

	var promBuf bytes.Buffer
	if err := hub.Metrics.WriteProm(&promBuf); err != nil {
		t.Fatal(err)
	}
	var ledBuf bytes.Buffer
	if led := sys.DecisionLedger(); led != nil {
		if err := led.WriteJSON(&ledBuf); err != nil {
			t.Fatal(err)
		}
	}
	var alertBuf bytes.Buffer
	if mon := sys.SLOMonitor(); mon != nil {
		if err := mon.WriteLog(&alertBuf); err != nil {
			t.Fatal(err)
		}
	}
	return purityRun{spans.Bytes(), promBuf.Bytes(), ledBuf.Bytes(), alertBuf.Bytes()}
}

// TestPerfSamplerPreservesGoldenSurfaces is the observatory's purity
// contract: arming the wall-clock sampler must leave every deterministic
// export byte-identical, the span trace included. The subtest is named after
// the simulator paths the build selects: fast by default, reference under
// -tags refpaths. This is the in-process twin of the scripts/golden.sh
// matrix, whose serve -out runs produce the goldens with the sampler armed.
func TestPerfSamplerPreservesGoldenSurfaces(t *testing.T) {
	t.Run(simPaths, func(t *testing.T) {
		off := runPerfPurity(t, nil)

		sampler := perf.NewSampler(0)
		on := runPerfPurity(t, sampler)

		for _, c := range []struct {
			name    string
			off, on []byte
		}{
			{"span trace", off.spans, on.spans},
			{"Prometheus exposition", off.prom, on.prom},
			{"decision ledger", off.ledger, on.ledger},
			{"SLO alert log", off.alerts, on.alerts},
		} {
			if !bytes.Equal(c.off, c.on) {
				t.Errorf("perf sampler changed the %s (%d vs %d bytes)", c.name, len(c.off), len(c.on))
			}
		}
		if len(off.spans) == 0 || len(off.prom) == 0 || len(off.ledger) == 0 {
			t.Fatal("purity comparison ran against empty exports")
		}

		// The sampler must also have actually observed the run it rode on.
		r := sampler.Report("purity")
		if r.Events == 0 {
			t.Error("armed sampler counted no events")
		}
		if r.WallSeconds <= 0 {
			t.Errorf("WallSeconds = %g, want > 0", r.WallSeconds)
		}
		if r.SimSeconds <= 0 {
			t.Errorf("SimSeconds = %g, want > 0", r.SimSeconds)
		}
		if r.Netsim.Reallocs == 0 {
			t.Error("armed sampler observed no reallocations")
		}
	})
}
