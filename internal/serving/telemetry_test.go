package serving

import (
	"bytes"
	"encoding/json"
	"testing"

	"heroserve/internal/collective"
	"heroserve/internal/model"
	"heroserve/internal/telemetry"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// TestPipelineStageSpansAndCounter proves pipeline activation hand-offs are
// no longer anonymous netsim flows: each one appears as a pipeline_stage
// async span (with its stage index) and increments the per-stage counter.
func TestPipelineStageSpansAndCounter(t *testing.T) {
	g := topology.Testbed()
	sw := g.Switches()[0]
	gpus := append(append([]topology.NodeID{}, g.ServerGPUs(0)[:2]...), g.ServerGPUs(1)[:2]...)
	pre, err := NewInstanceSpec(RolePrefill, gpus, 2, 2, sw, collective.SchemeRing)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewInstanceSpec(RoleDecode, g.ServerGPUs(2), 2, 2, sw, collective.SchemeRing)
	if err != nil {
		t.Fatal(err)
	}
	dep := Deployment{Model: model.OPT13B(), Prefill: []InstanceSpec{pre}, Decode: []InstanceSpec{dec}}
	hub := telemetry.New()
	var buf bytes.Buffer
	if err := hub.Trace.StreamTo(&buf); err != nil {
		t.Fatal(err)
	}
	sys, err := New(g, dep, Options{Telemetry: hub})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(workload.NewGenerator(workload.Chatbot, 3).Generate(10, 2))
	if res.Served != 10 {
		t.Fatalf("served %d/10", res.Served)
	}

	handoffs, ok := hub.Metrics.Value("pipeline_stage_transfers_total", "1")
	if !ok || handoffs == 0 {
		t.Fatalf("pipeline_stage_transfers_total{stage=1} = %v,%v, want > 0", handoffs, ok)
	}

	if err := hub.Trace.CloseStream(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	begins, ends := 0, 0
	for _, e := range doc.TraceEvents {
		if e.Name != "pipeline_stage" {
			continue
		}
		switch e.Ph {
		case "b":
			begins++
			if e.Cat != "pipeline" {
				t.Errorf("pipeline_stage span cat = %q", e.Cat)
			}
			if stage, _ := e.Args["stage"].(float64); stage != 1 {
				t.Errorf("pipeline_stage span stage arg = %v, want 1", e.Args["stage"])
			}
			if _, isNum := e.Args["bytes"].(float64); !isNum {
				t.Errorf("pipeline_stage span bytes arg = %v", e.Args["bytes"])
			}
		case "e":
			ends++
		}
	}
	if begins == 0 || begins != ends {
		t.Fatalf("pipeline_stage spans: %d begins, %d ends", begins, ends)
	}
	if float64(begins) != handoffs {
		t.Errorf("pipeline_stage spans (%d) disagree with counter (%g)", begins, handoffs)
	}
}

// TestNoPipelineStageMetricsWithoutPipeline guards the label set: a PP=1
// deployment must not register the per-stage family at all.
func TestNoPipelineStageMetricsWithoutPipeline(t *testing.T) {
	g := topology.Testbed()
	dep := testbedDeployment(t, g)
	hub := telemetry.New()
	sys, err := New(g, dep, Options{Telemetry: hub})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(workload.NewGenerator(workload.Chatbot, 7).Generate(10, 2))
	if v, ok := hub.Metrics.Value("pipeline_stage_transfers_total", "1"); ok {
		t.Errorf("PP=1 run registered pipeline_stage_transfers_total = %g", v)
	}
}
