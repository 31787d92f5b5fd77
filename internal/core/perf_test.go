package core

import (
	"bytes"
	"testing"

	"heroserve/internal/serving"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/perf"
	"heroserve/internal/workload"
)

// runPerfPurity executes one fully telemetered HeroServe run, optionally with
// the performance observatory armed, and returns every deterministic export
// surface: the Prometheus exposition, the decision-ledger JSON, and the SLO
// alert log.
func runPerfPurity(t *testing.T, sampler *perf.Sampler) (prom, ledger, alerts []byte) {
	t.Helper()
	in := inputs(t)
	hub := telemetry.New()
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
	return promBuf.Bytes(), ledBuf.Bytes(), alertBuf.Bytes()
}

// TestPerfSamplerPreservesGoldenSurfaces is the observatory's purity
// contract: arming the wall-clock sampler must leave every deterministic
// export byte-identical. The subtest is named after the simulator paths the
// build selects: fast by default, reference under -tags refpaths. This is
// the in-process twin of the scripts/golden.sh matrix, which produces its
// goldens with -perf-out armed.
func TestPerfSamplerPreservesGoldenSurfaces(t *testing.T) {
	t.Run(simPaths, func(t *testing.T) {
		promOff, ledOff, alertsOff := runPerfPurity(t, nil)

		sampler := perf.NewSampler(0)
		promOn, ledOn, alertsOn := runPerfPurity(t, sampler)

		if !bytes.Equal(promOff, promOn) {
			t.Error("perf sampler changed the Prometheus exposition")
		}
		if !bytes.Equal(ledOff, ledOn) {
			t.Error("perf sampler changed the decision ledger")
		}
		if !bytes.Equal(alertsOff, alertsOn) {
			t.Error("perf sampler changed the SLO alert log")
		}
		if len(promOff) == 0 || len(ledOff) == 0 {
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
