// Package baselines implements the three comparison systems of the paper's
// evaluation (§V) as communication policies and planner variants:
//
//   - DistServe: prefill/decode disaggregation with NCCL-style ring
//     all-reduce only (no in-network aggregation).
//   - DS-SwitchML: DistServe + synchronous Ethernet INA (SwitchML slots).
//   - DS-ATP: DistServe + asynchronous Ethernet INA (ATP shared pool).
//
// A baseline is fully described by its all-reduce scheme. All three plan
// with the heterogeneous scheme disabled; the INA variants force their
// aggregation discipline onto every cross-server group. The systems table
// (core.Systems) names them; HeroServe itself lives in internal/core.
package baselines

import (
	"fmt"

	"heroserve/internal/collective"
	"heroserve/internal/planner"
	"heroserve/internal/serving"
)

// policy runs one scheme on every cross-server group. Intra-server groups
// stay on the NCCL ring (NVLink): a real SwitchML/ATP integration never
// detours node-local collectives through the ToR. Groups without a reachable
// switch also fall back to ring.
type policy struct {
	name   string
	scheme collective.Scheme
}

func (p policy) Name() string { return p.name }

func (p policy) AllReduce(ctx *serving.GroupCtx, msgBytes int64, steps int, done func()) {
	if p.scheme == collective.SchemeRing || ctx.Switch < 0 || len(ctx.Group.ServerParts()) == 1 {
		ctx.Comm.AllReduceTagged(collective.SchemeRing, ctx.Group, -1, msgBytes, steps, ctx.Reqs, done)
		return
	}
	ctx.Comm.AllReduceTagged(p.scheme, ctx.Group, ctx.Switch, msgBytes, steps, ctx.Reqs, done)
}

// Policy returns the communication policy, named name, of the baseline whose
// all-reduce scheme is scheme: ring, or sync or async Ethernet INA. It
// panics on the heterogeneous scheme, which no baseline runs.
func Policy(name string, scheme collective.Scheme) serving.CommPolicy {
	if scheme >= collective.SchemeHetero {
		panic(fmt.Sprintf("baselines: no baseline runs scheme %v", scheme))
	}
	return policy{name: name, scheme: scheme}
}

// Plan runs the offline planner in the baseline's configuration: the
// heterogeneous scheme is disabled, and the resulting per-stage scheme
// annotations are overridden to the baseline's scheme where a switch exists
// and the stage spans servers, and to ring everywhere else.
func Plan(scheme collective.Scheme, in planner.Inputs) (*planner.Plan, error) {
	in.Hetero = false
	plan, err := planner.Solve(in)
	if err != nil {
		return nil, err
	}
	spans := func(spec *serving.InstanceSpec, stage int) bool {
		group := spec.Stages[stage]
		for _, id := range group[1:] {
			if !in.Graph.SameServer(group[0], id) {
				return true
			}
		}
		return false
	}
	override := func(specs []serving.InstanceSpec) {
		for i := range specs {
			for s := range specs[i].Scheme {
				if scheme == collective.SchemeRing || specs[i].AggSwitch[s] < 0 || !spans(&specs[i], s) {
					specs[i].Scheme[s] = collective.SchemeRing
				} else {
					specs[i].Scheme[s] = scheme
				}
			}
		}
	}
	override(plan.Deployment.Prefill)
	override(plan.Deployment.Decode)
	return plan, nil
}
