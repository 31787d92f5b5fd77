// Package planner implements the scalability-oriented offline planner of
// paper §III-C (Algorithms 1 and 2). Given the cluster topology, the model,
// workload token statistics, the arrival rate, and the latency SLAs
// (Table I), it searches parallelism configurations (P_tens, P_pipe for both
// the prefill and decode clusters), places GPU groups with a constrained
// clustering of the offline latency matrix, selects per-group aggregation
// switches and communication schemes (INA vs ring vs heterogeneous INA), and
// returns the deployment maximizing scalability H = 1/T_req under the SLA
// constraints (Table II).
package planner

import (
	"fmt"
	"math"

	"heroserve/internal/model"
	"heroserve/internal/serving"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// rFrac is the fraction of a GPU's memory the planner may fill with
// weights, reserving the rest for KV cache and activations (Alg. 1's
// R_frac).
const rFrac = 0.8

// maxCandidates is the paper's max_candi, the cap on the P_all
// configurations examined: "setting max_candi = twenty usually yields
// near-optimal solutions" (§III-C3).
const maxCandidates = 20

// Inputs are the planner inputs of Table I.
type Inputs struct {
	Model model.Config
	Graph *topology.Graph

	// PrefillGPUs and DecodeGPUs are the disaggregated pools V_g^p / V_g^d.
	PrefillGPUs []topology.NodeID
	DecodeGPUs  []topology.NodeID

	// Workload is the representative batch statistics (Q, K_in, K_in2,
	// K_out).
	Workload workload.Stats
	// Lambda is the request arrival rate in requests/second.
	Lambda float64
	// SLA holds T_sla^pre (TTFT) and T_sla^dec (TPOT).
	SLA serving.SLA

	// Hetero permits the heterogeneous INA scheme (HeroServe). Baseline
	// planners disable it.
	Hetero bool
	// MaxPerturbIters bounds the random-swap refinement of Alg. 2 (default
	// 5, the paper's observed convergence point).
	MaxPerturbIters int
	// MinTensDecode floors the decode cluster's tensor-parallel degree.
	// The paper's evaluation regime is cross-server parallelization (§II-B:
	// instances span servers to pool memory for many users' KV caches;
	// Fig. 1 measures that regime) — setting this above the per-server GPU
	// count forces every evaluated system into it, so the systems differ in
	// communication scheduling rather than in whether they communicate.
	MinTensDecode int
	// MaxDecodeBatch caps the decode concurrency assumed by the
	// scalability objective (matches serving.Options.MaxDecodeBatch;
	// default 64).
	MaxDecodeBatch int
	// Seed drives the deterministic pseudo-random perturbations.
	Seed int64
	// Trace, when non-nil, receives every candidate's evaluation (for
	// debugging and the planner CLI's -v mode).
	Trace func(c Candidate, h float64, reason string)
}

func (in *Inputs) setDefaults() {
	if in.MaxPerturbIters == 0 {
		in.MaxPerturbIters = 5
	}
	if in.MaxDecodeBatch == 0 {
		in.MaxDecodeBatch = 64
	}
}

// Validate rejects structurally impossible inputs.
func (in *Inputs) Validate() error {
	if err := in.Model.Validate(); err != nil {
		return err
	}
	if in.Graph == nil {
		return fmt.Errorf("planner: nil graph")
	}
	if len(in.PrefillGPUs) == 0 || len(in.DecodeGPUs) == 0 {
		return fmt.Errorf("planner: empty prefill or decode GPU pool")
	}
	if !finitePositive(in.Lambda) {
		return fmt.Errorf("planner: arrival rate %g must be finite and positive", in.Lambda)
	}
	if in.Workload.Q <= 0 || in.Workload.Kin <= 0 {
		return fmt.Errorf("planner: workload stats missing")
	}
	// A NaN threshold would pass every comparison against it.
	if !finitePositive(in.SLA.TTFT) || !finitePositive(in.SLA.TPOT) {
		return fmt.Errorf("planner: SLA thresholds TTFT %g and TPOT %g must be finite and positive", in.SLA.TTFT, in.SLA.TPOT)
	}
	if in.MinTensDecode < 0 {
		return fmt.Errorf("planner: negative decode tensor-parallel floor %d", in.MinTensDecode)
	}
	return nil
}

// finitePositive reports whether x is a positive real number: not zero,
// negative, infinite or NaN.
func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// SplitPoolsByServer partitions the graph's GPU servers into a prefill pool
// (the first prefillServers servers) and a decode pool (the rest) — the
// paper's disaggregated clusters. The testbed assigns the compute-rich A100
// servers to prefill (compute-bound) and the rest to decode.
func SplitPoolsByServer(g *topology.Graph, prefillServers int) (prefill, decode []topology.NodeID) {
	for s := 0; s < g.NumServers(); s++ {
		if s < prefillServers {
			prefill = append(prefill, g.ServerGPUs(s)...)
		} else {
			decode = append(decode, g.ServerGPUs(s)...)
		}
	}
	return prefill, decode
}

// Candidate is one P_all configuration (Table II's parallel parameters).
type Candidate struct {
	PtensP, PpipeP int
	PtensD, PpipeD int
}

func (c Candidate) String() string {
	return fmt.Sprintf("pre=%dx%d dec=%dx%d", c.PtensP, c.PpipeP, c.PtensD, c.PpipeD)
}

// clusterEstimate is the outcome of one cluster's (prefill or decode)
// placement + latency estimation.
type clusterEstimate struct {
	feasible  bool
	reason    string
	instances []serving.InstanceSpec
	// tn is the per-forward-pass synchronization latency (Eq. 5), tc the
	// computation latency; for decode both are per output token.
	tn, tc float64
	// schemes/switches chosen per stage of the first instance (all replicas
	// share the layout decisions).
	iterations int // perturbation iterations used
}

// Plan is the planner output (Table II) plus the estimates that selected it.
type Plan struct {
	Candidate  Candidate
	Deployment serving.Deployment

	// Estimates backing the selection.
	Tpre, Tdec, Tf, Tqueue, Tserve float64
	// H is the scalability objective (Eq. 1).
	H float64

	// Search telemetry.
	CandidatesTried   int
	PerturbIterations int
}
