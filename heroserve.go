// Package heroserve reproduces "Scalable and Fast Inference Serving via
// Hybrid Communication Scheduling on Heterogeneous Networks" (CLUSTER 2025):
// an LLM inference-serving system that accelerates tensor-parallel data
// synchronization by scheduling collective communication across
// heterogeneous links — intra-server NVLink plus inter-server Ethernet with
// programmable-switch in-network aggregation.
//
// The implementation lives under internal/:
//
//   - internal/sim, internal/netsim, internal/switchsim — the simulated
//     substrate: discrete-event engine, max-min-fair flow-level network, and
//     the programmable-switch aggregation data/control plane.
//   - internal/topology, internal/model, internal/workload,
//     internal/queueing, internal/stats — cluster graphs, the LLM cost
//     model (paper Eq. 12-13), synthetic ShareGPT/LongBench traces, and the
//     analytic toolkit.
//   - internal/collective — ring, Ethernet INA (SwitchML/ATP semantics), and
//     HeroServe's heterogeneous INA, in analytic and simulated forms.
//   - internal/planner — the scalability-oriented offline planner
//     (paper Alg. 1 + Alg. 2).
//   - internal/scheduler — the load-aware online scheduler (paper Eq. 16-18).
//   - internal/serving — the event-driven disaggregated prefill/decode
//     serving simulator; internal/baselines — DistServe, DS-SwitchML,
//     DS-ATP; internal/core — HeroServe itself, and the systems table
//     (core.Systems, core.ByName) from which every command and experiment
//     builds the four systems.
//   - internal/experiments — drivers regenerating every evaluation figure.
//
// Entry points: cmd/heroserve (figure regeneration), cmd/planner (offline
// planning), cmd/tracegen (trace synthesis), and the runnable examples under
// examples/. The benchmarks in bench_test.go regenerate one paper artifact
// each; see EXPERIMENTS.md for the paper-vs-measured record.
package heroserve
