// Package baselines implements the three comparison systems of the paper's
// evaluation (§V) as planner variants:
//
//   - DistServe: prefill/decode disaggregation with NCCL-style ring
//     all-reduce only (no in-network aggregation).
//   - DS-SwitchML: DistServe + synchronous Ethernet INA (SwitchML slots).
//   - DS-ATP: DistServe + asynchronous Ethernet INA (ATP shared pool).
//
// A baseline is fully described by its all-reduce scheme. All three plan
// with the heterogeneous scheme disabled; the INA variants force their
// aggregation discipline onto every cross-server group. Each serves with
// serving.PlannedPolicy over its rewritten plan. The systems table
// (core.Systems) names them; HeroServe itself lives in internal/core.
package baselines

import (
	"heroserve/internal/collective"
	"heroserve/internal/planner"
	"heroserve/internal/serving"
)

// Plan runs the offline planner in the baseline's configuration: the
// heterogeneous scheme is disabled, and the resulting per-stage scheme
// annotations are overridden to the baseline's scheme where a switch exists
// and the stage spans servers, and to ring everywhere else: a real
// SwitchML/ATP integration never detours node-local collectives through the
// ToR.
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
