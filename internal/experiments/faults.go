package experiments

import (
	"fmt"

	"heroserve/internal/faults"
	"heroserve/internal/serving"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// FaultsSystemResult is one system's clean-vs-faulted comparison.
type FaultsSystemResult struct {
	System          SystemKind
	CleanAttainment float64
	FaultAttainment float64
	CleanTTFT       float64
	FaultTTFT       float64
	CleanTPOT       float64
	FaultTPOT       float64
	// FaultFallbacks counts in-flight INA collectives demoted to the
	// host-aggregation path by a switch reboot.
	FaultFallbacks int64
}

// FaultsData is the fault-resilience study: the four systems serve the same
// chatbot trace on the testbed twice — once on a healthy fabric and once
// under a seeded schedule of link degradations, switch faults, and agent
// stalls — and the SLA attainment drop is compared.
type FaultsData struct {
	Workload workload.Kind
	SLA      serving.SLA
	// PerGPURate is the offered per-GPU request rate of both runs.
	PerGPURate float64
	Schedule   faults.Schedule
	Systems    []FaultsSystemResult
}

// faultsSchedule draws the study's default fault plan for the testbed: six
// Ethernet/trunk degrade windows (two of them blackouts), one slot
// exhaustion, one switch reboot, and two control-plane stall windows, all
// inside the serving horizon.
func faultsSchedule(g *topology.Graph, horizon float64, seed int64) faults.Schedule {
	return faults.RandomSchedule(g, horizon, seed, faults.DefaultRandomConfig(horizon))
}

// FaultsExperimentData runs the fault-resilience study.
func FaultsExperimentData(env Env) (*FaultsData, error) {
	const (
		gpus       = 16 // the testbed's GPU count
		perGPURate = 0.19
	)
	kind := workload.Chatbot
	sla := serving.SLA{TTFT: 2.5, TPOT: 0.15}
	reqs := 48
	if env.Scale == Full {
		reqs *= 3
	}
	rate := perGPURate * gpus
	// Faults land inside the arrival span, so every window overlaps live
	// serving traffic.
	arrivalSpan := float64(reqs) / rate

	g := topology.Testbed()
	sched := faultsSchedule(g, arrivalSpan, env.Seed)
	data := &FaultsData{Workload: kind, SLA: sla, PerGPURate: perGPURate, Schedule: sched}
	for _, sysKind := range AllSystems {
		in := testbedOPT66B.inputs(g, kind, sla, rate, env.Seed)
		plan, err := planAtBestLambda(sysKind, in, rate)
		if err != nil {
			return nil, fmt.Errorf("faults %v: %w", sysKind, err)
		}
		cfg := runConfig{
			kind:     sysKind,
			in:       in,
			plan:     plan,
			workload: kind,
			requests: reqs,
			rate:     rate,
			seed:     env.Seed,
		}
		// The same background load in both runs (the testbed's bursty
		// replayer traffic plus sustained elephant lanes, as in Fig. 7), so
		// the only difference between them is the fault schedule.
		burstHorizon := arrivalSpan + 20
		cfg.bursts = fig7Bursts(env.Seed+int64(sysKind), burstHorizon)
		cfg.elephants = 4
		cfg.elephantBytes = 512 << 20
		cfg.elephantHorizon = burstHorizon

		clean, err := env.runOnce(cfg)
		if err != nil {
			return nil, fmt.Errorf("faults %v clean: %w", sysKind, err)
		}
		cfg.faults = &sched
		faulted, err := env.runOnce(cfg)
		if err != nil {
			return nil, fmt.Errorf("faults %v faulted: %w", sysKind, err)
		}
		data.Systems = append(data.Systems, FaultsSystemResult{
			System:          sysKind,
			CleanAttainment: clean.Attainment(sla),
			FaultAttainment: faulted.Attainment(sla),
			CleanTTFT:       mean(clean.TTFTs()),
			FaultTTFT:       mean(faulted.TTFTs()),
			CleanTPOT:       meanPositive(clean.TPOTs()),
			FaultTPOT:       meanPositive(faulted.TPOTs()),
			FaultFallbacks:  faulted.Comm.FaultFallbacks,
		})
	}
	return data, nil
}

// FaultsExperiment runs and renders the fault-resilience study.
func FaultsExperiment(env Env) (*Report, error) {
	data, err := FaultsExperimentData(env)
	if err != nil {
		return nil, err
	}
	return FaultsRender(data), nil
}

// FaultsRender builds the report from already-computed study data.
func FaultsRender(d *FaultsData) *Report {
	r := &Report{Name: "Fault resilience — SLA attainment under injected faults"}
	t := r.AddTable(
		fmt.Sprintf("%s @ %.3g req/s/GPU (SLA: TTFT %gs, TPOT %gs), %d faults",
			d.Workload, d.PerGPURate, d.SLA.TTFT, d.SLA.TPOT, len(d.Schedule.Events)),
		"system", "clean attain", "faulted attain", "drop", "faulted TTFT (s)", "faulted TPOT (s)", "INA fallbacks")
	for _, s := range d.Systems {
		t.AddRow(s.System.String(),
			fmtPct(s.CleanAttainment), fmtPct(s.FaultAttainment),
			fmtPct(s.CleanAttainment-s.FaultAttainment),
			fmtF(s.FaultTTFT), fmtF(s.FaultTPOT),
			fmt.Sprintf("%d", s.FaultFallbacks))
	}
	ft := r.AddTable("injected fault schedule", "t (s)", "fault", "duration (s)", "target")
	for _, ev := range d.Schedule.Events {
		target := "-"
		switch ev.Kind {
		case faults.LinkDegrade:
			target = fmt.Sprintf("edge %d (x%.2g capacity)", ev.Edge, ev.Factor)
		case faults.SlotExhaustion:
			target = fmt.Sprintf("switch %d (%d slots)", ev.Switch, ev.Slots)
		case faults.SwitchReboot:
			target = fmt.Sprintf("switch %d", ev.Switch)
		}
		ft.AddRow(fmt.Sprintf("%.2f", ev.At), ev.Kind.String(), fmt.Sprintf("%.2f", ev.Duration), target)
	}
	r.AddNote("the online scheduler prices dead links and unhealthy switches out of the policy tables; baselines keep executing their planned scheme into the fault")
	return r
}
