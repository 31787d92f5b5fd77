package planner

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"heroserve/internal/collective"
	"heroserve/internal/model"
	"heroserve/internal/queueing"
	"heroserve/internal/serving"
	"heroserve/internal/topology"
)

// genCandidates implements Alg. 1 step 1: from the minimum GPU count implied
// by the weight memory and R_frac, enumerate feasible (P_tens, P_pipe)
// combinations for each cluster, pair them, and keep at most max_candi
// configurations (ordered smallest-footprint first: fewer GPUs per instance
// leave room for more replicas, and ties prefer tensor over pipeline
// parallelism, which serves latency).
func genCandidates(in *Inputs) []Candidate {
	per := func(pool []topology.NodeID, minTens int) []struct{ pt, pp int } {
		minMem := int64(math.MaxInt64)
		for _, id := range pool {
			if m := in.Graph.Node(id).FreeBytes; m < minMem {
				minMem = m
			}
		}
		usable := int64(float64(minMem) * in.RFrac)
		if usable <= 0 {
			return nil
		}
		minGPUs := in.Model.MinGPUs(usable)
		var out []struct{ pt, pp int }
		for _, pt := range []int{1, 2, 4, 8, 16} {
			if pt < minTens {
				continue
			}
			for _, pp := range []int{1, 2, 4, 8} {
				n := pt * pp
				if n < minGPUs || n > len(pool) {
					continue
				}
				out = append(out, struct{ pt, pp int }{pt, pp})
			}
		}
		sort.Slice(out, func(i, j int) bool {
			ni, nj := out[i].pt*out[i].pp, out[j].pt*out[j].pp
			if ni != nj {
				return ni < nj
			}
			return out[i].pt > out[j].pt
		})
		return out
	}
	pre := per(in.PrefillGPUs, 0)
	dec := per(in.DecodeGPUs, in.MinTensDecode)
	var cands []Candidate
	for _, p := range pre {
		for _, d := range dec {
			cands = append(cands, Candidate{PtensP: p.pt, PpipeP: p.pp, PtensD: d.pt, PpipeD: d.pp})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		ni := cands[i].PtensP*cands[i].PpipeP + cands[i].PtensD*cands[i].PpipeD
		nj := cands[j].PtensP*cands[j].PpipeP + cands[j].PtensD*cands[j].PpipeD
		if ni != nj {
			return ni < nj
		}
		if cands[i].PtensP != cands[j].PtensP {
			return cands[i].PtensP > cands[j].PtensP
		}
		return cands[i].PtensD > cands[j].PtensD
	})
	if len(cands) > in.MaxCandidates {
		cands = cands[:in.MaxCandidates]
	}
	return cands
}

// slowestGPU returns the weakest GPU spec in the pool (it paces synchronous
// execution).
func slowestGPU(g *topology.Graph, pool []topology.NodeID) (model.GPUSpec, error) {
	var slowest model.GPUSpec
	for _, id := range pool {
		spec, err := model.GPUByName(g.Node(id).GPUType)
		if err != nil {
			return model.GPUSpec{}, err
		}
		if slowest.Name == "" || spec.PeakFLOPS < slowest.PeakFLOPS {
			slowest = spec
		}
	}
	return slowest, nil
}

// Solve runs the scalability-oriented offline planner (Alg. 1): it examines
// candidate P_all configurations, estimates each cluster's network and
// computation latency concurrently (the paper's prefill/decode threads),
// evaluates the SLA constraints and the scalability objective H = 1/T_req,
// and returns the best feasible plan. It returns an error when no candidate
// satisfies the SLAs.
func Solve(in Inputs) (*Plan, error) {
	in.setDefaults()
	if err := in.Validate(); err != nil {
		return nil, err
	}
	preGPU, err := slowestGPU(in.Graph, in.PrefillGPUs)
	if err != nil {
		return nil, err
	}
	decGPU, err := slowestGPU(in.Graph, in.DecodeGPUs)
	if err != nil {
		return nil, err
	}
	preCM, err := model.Fit(in.Model, preGPU)
	if err != nil {
		return nil, err
	}
	decCM := preCM
	if decGPU.Name != preGPU.Name {
		if decCM, err = model.Fit(in.Model, decGPU); err != nil {
			return nil, err
		}
	}

	cands := genCandidates(&in)
	if len(cands) == 0 {
		return nil, fmt.Errorf("planner: no feasible parallelism candidates (model too large for pools?)")
	}

	w := in.Workload
	meanOut := float64(w.Kout) / float64(w.Q)
	if meanOut < 1 {
		meanOut = 1
	}

	// One tree cache per role: its message size, edge cost and relay
	// predicate are the same for every candidate. Each is used by one
	// estimation goroutine at a time, so it needs no lock, and it is
	// dropped when Solve returns.
	roleTrees := func(pool []topology.NodeID, msgBytes int64) *topology.Trees {
		universe := append(append([]topology.NodeID{}, pool...), in.Graph.Switches()...)
		return in.Graph.NewTrees(universe, msgBytes, collective.FabricAllow(in.Graph))
	}
	preMsg, decMsg := in.Model.SyncBytes(w.Kin), in.Model.SyncBytes(int64(w.Q))
	preTrees, decTrees := roleTrees(in.PrefillGPUs, preMsg), roleTrees(in.DecodeGPUs, decMsg)
	kvRouter := collective.NewStaticRouter(in.Graph)

	var best *Plan
	for ci, cand := range cands {
		rng := rand.New(rand.NewSource(in.Seed + int64(ci)))

		var preEst, decEst clusterEstimate
		var wg sync.WaitGroup
		wg.Add(2)
		// The paper runs the two cluster estimations as concurrent threads
		// (Alg. 1 lines 4 and 11); they touch disjoint state.
		go func() {
			defer wg.Done()
			preEst = estimateNetwork(&in, clusterParams{
				role:     serving.RolePrefill,
				ptens:    cand.PtensP,
				ppipe:    cand.PpipeP,
				pool:     in.PrefillGPUs,
				msgBytes: preMsg,
				trees:    preTrees,
				steps:    syncStepsPerStage(in.Model.SyncStepsPerPass(), cand.PpipeP),
				actBytes: in.Model.PipelineActivationBytes(w.Kin),
			}, rng)
			preEst.tc = preCM.Prefill(w.Kin, w.Kin2, cand.PtensP)
		}()
		go func() {
			defer wg.Done()
			decEst = estimateNetwork(&in, clusterParams{
				role:     serving.RoleDecode,
				ptens:    cand.PtensD,
				ppipe:    cand.PpipeD,
				pool:     in.DecodeGPUs,
				msgBytes: decMsg,
				trees:    decTrees,
				steps:    syncStepsPerStage(in.Model.SyncStepsPerPass(), cand.PpipeD),
				actBytes: in.Model.PipelineActivationBytes(int64(w.Q)),
			}, rand.New(rand.NewSource(in.Seed+int64(ci)+7919)))
			decEst.tc = decCM.Decode(w.Kin+w.Kout, cand.PtensD, cand.PpipeD)
		}()
		wg.Wait()

		trace := func(h float64, reason string) {
			if in.Trace != nil {
				in.Trace(cand, h, reason)
			}
		}
		if !preEst.feasible || !decEst.feasible {
			trace(0, "infeasible: "+preEst.reason+decEst.reason)
			continue
		}

		tf := estimateKVTransfer(&in, kvRouter, &preEst.instances[0], &decEst.instances[0])
		if math.IsInf(tf, 1) {
			trace(0, "unroutable KV transfer")
			continue
		}
		tpre := preEst.tn + preEst.tc // Eq. 3
		// Eq. 4 adds T_f to the per-token decode latency; KV migration
		// overlaps with the decoding of other requests in practice (and in
		// our serving simulator), so we amortize it over the request's
		// expected output length.
		tdec := decEst.tn + decEst.tc + tf/meanOut

		if tpre > in.SLA.TTFT || tdec > in.SLA.TPOT {
			trace(0, fmt.Sprintf("SLA violated: Tpre=%.3g Tdec=%.3g", tpre, tdec))
			continue
		}

		// Scalability H = 1/T_req (Eq. 1). A request experiences the prefill
		// pass, the KV hand-off, and its decode tokens. Capacity comes from
		// continuous batching: each prefill instance turns over Q requests
		// per (tpre + tf); each decode instance sustains qEff concurrent
		// requests, where qEff is bounded both by the batch cap and by the
		// instance's KV-cache memory — the paper's motivation for spanning
		// servers (§II-B: aggregate memory for many users' cached data).
		// The Pollaczek–Khinchine queue (§III-C1) prices the residual load.
		experienced := tpre + tf + meanOut*tdec
		meanIn := float64(w.Kin) / float64(w.Q)
		qEff := decodeConcurrency(&in, &decEst.instances[0], meanIn, meanOut)
		prefillTput := float64(len(preEst.instances)) * float64(w.Q) / (tpre + tf)
		decodeTput := float64(len(decEst.instances)) * qEff / (meanOut * tdec)
		capacity := prefillTput
		if decodeTput < capacity {
			capacity = decodeTput
		}
		if capacity <= 0 || in.Lambda >= capacity {
			trace(0, fmt.Sprintf("unstable: capacity %.3g < lambda", capacity))
			continue // unstable: cannot serve the offered load
		}
		tqueue := queueing.PaperQueue(in.Lambda, 1/capacity)
		if math.IsInf(tqueue, 1) {
			trace(0, "unstable queue")
			continue
		}
		treq := tqueue + experienced
		h := 1 / treq
		trace(h, fmt.Sprintf("tpre=%.3g tdec=%.4g tf=%.3g cap=%.3g pre=%d dec=%d", tpre, tdec, tf, capacity, len(preEst.instances), len(decEst.instances)))

		if best == nil || h > best.H {
			best = &Plan{
				Candidate: cand,
				Deployment: serving.Deployment{
					Model:   in.Model,
					Prefill: preEst.instances,
					Decode:  decEst.instances,
				},
				Tpre:              tpre,
				Tdec:              tdec,
				Tf:                tf,
				Tqueue:            tqueue,
				Tserve:            experienced,
				H:                 h,
				PerturbIterations: max(preEst.iterations, decEst.iterations),
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("planner: no candidate meets the SLAs at rate %g (tried %d)", in.Lambda, len(cands))
	}
	best.CandidatesTried = len(cands)
	return best, nil
}

// decodeConcurrency returns the effective concurrent batch of one decode
// instance: the batch cap, shrunk when the instance's post-weight KV memory
// cannot hold that many requests' caches.
func decodeConcurrency(in *Inputs, inst *serving.InstanceSpec, meanIn, meanOut float64) float64 {
	weight := in.Model.WeightBytesPerGPU(inst.Ptens(), inst.Ppipe())
	var kvCap int64
	for _, id := range inst.GPUs() {
		if free := in.Graph.Node(id).FreeBytes - weight; free > 0 {
			kvCap += free
		}
	}
	perReq := float64(in.Model.KVBytesPerToken()) * (meanIn + meanOut)
	q := float64(in.MaxDecodeBatch)
	if byMem := float64(kvCap) / perReq; byMem < q {
		q = byMem
	}
	if q < 1 {
		q = 1
	}
	return q
}

// syncStepsPerStage splits the per-pass sync steps across pipeline stages.
func syncStepsPerStage(total, ppipe int) int {
	s := total / ppipe
	if s < 1 {
		s = 1
	}
	return s
}
