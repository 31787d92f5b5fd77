package serving

import (
	"math/rand"
	"testing"

	"heroserve/internal/collective"
	"heroserve/internal/model"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// Property: for arbitrary traces and deployment shapes, every request is
// served exactly once, latency metrics are internally consistent, and KV
// memory is fully released by the end of the run.
func TestQuickServingInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		g := topology.Testbed()
		sw := g.Switches()[rng.Intn(2)]
		schemes := []collective.Scheme{
			collective.SchemeRing, collective.SchemeINASync,
			collective.SchemeINAAsync, collective.SchemeHetero,
		}
		preScheme := schemes[rng.Intn(len(schemes))]
		decScheme := schemes[rng.Intn(len(schemes))]

		shapes := [][2]int{{4, 1}, {2, 2}, {2, 1}, {4, 2}}
		ps := shapes[rng.Intn(len(shapes))]
		preGPUs := append(append([]topology.NodeID{}, g.ServerGPUs(0)...), g.ServerGPUs(1)...)[:ps[0]*ps[1]]
		pre, err := NewInstanceSpec(RolePrefill, preGPUs, ps[0], ps[1], sw, preScheme)
		if err != nil {
			t.Fatal(err)
		}
		ds := shapes[rng.Intn(len(shapes))]
		decGPUs := append(append([]topology.NodeID{}, g.ServerGPUs(2)...), g.ServerGPUs(3)...)[:ds[0]*ds[1]]
		dec, err := NewInstanceSpec(RoleDecode, decGPUs, ds[0], ds[1], sw, decScheme)
		if err != nil {
			t.Fatal(err)
		}
		dep := Deployment{Model: model.OPT13B(), Prefill: []InstanceSpec{pre}, Decode: []InstanceSpec{dec}}
		sys, err := New(g, dep, Options{MaxDecodeBatch: rng.Intn(30) + 2})
		if err != nil {
			t.Fatal(err)
		}

		n := rng.Intn(20) + 5
		tr := &workload.Trace{}
		for i := 0; i < n; i++ {
			tr.Requests = append(tr.Requests, workload.Request{
				ID:      i,
				Arrival: rng.Float64() * 5,
				Input:   rng.Intn(900) + 1,
				Output:  rng.Intn(120) + 1,
			})
		}
		res := sys.Run(tr)
		if res.Served != n {
			t.Fatalf("trial %d: served %d/%d", trial, res.Served, n)
		}
		seen := map[int]bool{}
		for _, m := range res.Requests {
			if seen[m.ID] {
				t.Fatalf("trial %d: request %d served twice", trial, m.ID)
			}
			seen[m.ID] = true
			if m.TTFT < 0 || m.TPOT < 0 || m.EndToEnd+1e-12 < m.TTFT {
				t.Fatalf("trial %d: inconsistent metrics %+v", trial, m)
			}
		}
		// All KV memory released.
		for _, di := range sys.decode {
			if di.kvUsed != 0 {
				t.Fatalf("trial %d: %d KV bytes leaked", trial, di.kvUsed)
			}
			if len(di.running)+di.pending.len() != 0 {
				t.Fatalf("trial %d: requests stranded on decode", trial)
			}
			if di.inflightKV != 0 {
				t.Fatalf("trial %d: inflight KV not settled", trial)
			}
		}
		// No prefill work left behind.
		for _, pi := range sys.prefill {
			if pi.queue.len() != 0 || pi.busy {
				t.Fatalf("trial %d: prefill not drained", trial)
			}
		}
		// The network drained too.
		if sys.net.ActiveFlows() != 0 {
			t.Fatalf("trial %d: %d flows still active", trial, sys.net.ActiveFlows())
		}
	}
}

// Property: the autoscaler never corrupts the invariants above, under
// arbitrary configs.
func TestQuickAutoscalerInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		g := topology.Testbed()
		dep := scaleDeployment(t, g)
		sys, err := New(g, dep, Options{
			MaxDecodeBatch: rng.Intn(12) + 2,
			Autoscale: &AutoscaleConfig{
				InitialActive: rng.Intn(3) + 1,
				MinActive:     1,
				Policy:        NewBacklogPolicy(float64(rng.Intn(3)+1), float64(rng.Intn(20)+1)),
				Interval:      0.25 + rng.Float64(),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(40) + 10
		res := sys.Run(workload.NewGenerator(workload.Chatbot, int64(trial)).Generate(n, 5))
		if res.Served != n {
			t.Fatalf("trial %d: served %d/%d", trial, res.Served, n)
		}
		for _, di := range sys.decode {
			if di.kvUsed != 0 || len(di.running)+di.pending.len() != 0 {
				t.Fatalf("trial %d: decode state leaked", trial)
			}
		}
		// Active-count telemetry stays within [MinActive, instances].
		for _, e := range res.ScaleEvents {
			if e.Active < 1 || e.Active > len(sys.decode) {
				t.Fatalf("trial %d: active count %d out of range", trial, e.Active)
			}
		}
	}
}
