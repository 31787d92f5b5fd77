package experiments

import (
	"fmt"
	"sort"

	"heroserve/internal/collective"
	"heroserve/internal/faults"
	"heroserve/internal/model"
	"heroserve/internal/serving"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/decisions"
	"heroserve/internal/telemetry/slo"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// The ext-scale study validates the paper's second future-work item (§VII:
// "rapid scaling in and out to achieve finer-grained scheduling of
// computational resources") as a quantitative harness: every built-in
// ScalePolicy runs against every scaling workload on a testbed with one
// prefill and three decode OPT-13B instances (one active, two reserves),
// plus a static full-fleet reference, and the scoreboard ranks policies by
// SLA attainment and decode GPU-seconds spent.
//
// All scoreboard figures are read back from the run's telemetry registry —
// sla_requests_total, decode_gpu_seconds_total, and the
// decode_batch_occupancy / decode_kv_utilization time-averages — and
// cross-checked against the Results struct, so the numbers agree with the
// run's metrics exposition bit for bit.

// ScaleStudyRow is one (workload, policy) cell of the ext-scale scoreboard.
type ScaleStudyRow struct {
	Workload string
	Policy   string
	// Rank orders autoscaled policies within a workload by SLA attainment
	// (desc), then GPU-seconds (asc), then name; 0 marks the static
	// reference row.
	Rank        int
	Served      int
	Attainment  float64 // sla_requests_total{met} / served
	GPUSeconds  float64 // decode_gpu_seconds_total
	Occupancy   float64 // mean decode_batch_occupancy_timeavg across instances (requests)
	KVUtil      float64 // mean decode_kv_utilization_timeavg across instances
	MeanTTFT    float64
	MeanTPOT    float64
	ScaleEvents int
	// ShadowRank is this law's rank in the single-run counterfactual shadow
	// replay of the workload's first autoscaled run (the tuned backlog run
	// carries the full tuned panel as shadows); 0 for the static row. It lets
	// the scoreboard's multi-run ranking be sanity-checked against what one
	// run's decision ledger alone would have predicted.
	ShadowRank int
}

// scaleWorkload is one trace regime of the study.
type scaleWorkload struct {
	name     string
	sla      serving.SLA
	maxBatch int              // per-instance decode batch cap for the regime
	faults   *faults.Schedule // optional fault injection armed on every run
	mk       func(scale Scale, seed int64) *workload.Trace
}

// scaleStudyRules is the study's SLO rule set, tuned for its sim-scale
// regimes so the alert-consuming laws have a live feed to act on: the
// kv-saturation threshold sits below kv-headroom's smoothed 0.80 high-water
// (the raw gauge crosses earlier than the smoothed signal), the fault budget
// trips on the first completions carrying stall mass, and the burn/queue
// rules catch a burst within a couple of control intervals.
func scaleStudyRules(sla serving.SLA) []slo.Rule {
	rules := []slo.Rule{
		{
			Name: "kv-saturation", Kind: slo.KindKVSaturation, Severity: slo.SevWarning,
			Threshold: 0.72,
		},
		{
			Name: "queue-growth", Kind: slo.KindQueueGrowth, Severity: slo.SevWarning,
			Over: 5, Threshold: 1, MinMass: 8, For: 1,
		},
		{
			Name: "fault-stall-budget", Kind: slo.KindFaultBudget, Severity: slo.SevCritical,
			Over: 6, Threshold: 0.05, MinMass: 0.2,
		},
	}
	if sla.TTFT > 0 {
		rules = append(rules, slo.Rule{
			Name: "ttft-burn", Kind: slo.KindBurnRate, Severity: slo.SevCritical,
			Objective: slo.ObjTTFT, Bound: sla.TTFT, Target: 0.9,
			Fast: slo.BurnWindow{Seconds: 5, Burn: 6}, Slow: slo.BurnWindow{Seconds: 20, Burn: 3},
		})
	}
	return rules
}

// scaleWorkloads builds the study's workload set: a hard chatbot burst with
// a quiet tail, a steady long-context summarization stream, a KV-memory
// creep, an on/off bursty arrival train, and a fault stall preceding a dense
// burst.
func scaleWorkloads() []scaleWorkload {
	return []scaleWorkload{
		{
			name: "chatbot",
			sla:  serving.SLA{TTFT: 2.5, TPOT: 0.15},
			// Tight batches so the backlog/occupancy signals move.
			maxBatch: 8,
			mk: func(scale Scale, seed int64) *workload.Trace {
				// ~20 req/s against a single-instance decode capacity of
				// ~3 req/s: the one starting instance visibly violates the
				// SLA unless reserves absorb the burst. Quiet-tail
				// stragglers then exercise scale-in.
				n := 60
				if scale == Full {
					n = 160
				}
				gen := workload.NewGenerator(workload.Chatbot, seed).Generate(n, 20)
				tr := &workload.Trace{Name: "chatbot", Requests: gen.Requests}
				last := gen.Duration()
				for i := 0; i < 4; i++ {
					tr.Requests = append(tr.Requests, workload.Request{
						ID: n + i, Arrival: last + 60 + 15*float64(i), Input: 200, Output: 60,
					})
				}
				return tr
			},
		},
		{
			name: "summarization",
			sla:  serving.SLA{TTFT: 25, TPOT: 0.2},
			// Wide batches: with multi-thousand-token KV footprints the
			// binding signal is KV memory, not batch slots.
			maxBatch: 32,
			mk: func(scale Scale, seed int64) *workload.Trace {
				// Long-context documents arriving faster than one instance
				// drains them, so KV pressure builds.
				n := 24
				if scale == Full {
					n = 64
				}
				gen := workload.NewGenerator(workload.Summarization, seed).Generate(n, 2)
				tr := &workload.Trace{Name: "summarization", Requests: gen.Requests}
				last := gen.Duration()
				for i := 0; i < 2; i++ {
					tr.Requests = append(tr.Requests, workload.Request{
						ID: n + i, Arrival: last + 60 + 20*float64(i), Input: 2048, Output: 48,
					})
				}
				return tr
			},
		},
		{
			name: "kv-pressure",
			sla:  serving.SLA{TTFT: 25, TPOT: 0.2},
			// Batch slots far exceed what KV memory can hold: long-lived
			// "anchor" contexts creep one instance's cache toward the
			// high-water mark while occupancy idles near half the batch cap
			// and nothing queues, so KV utilization is the only signal that
			// moves before admission stalls. kv-headroom's 0.80 high-water
			// acts on it pre-stall; every other law waits for the backlog
			// the stall then causes — and the small "probe" requests
			// stranded behind the full cache in that reaction gap wait for
			// an anchor to finish, blowing their per-token budget.
			maxBatch: 48,
			mk: func(scale Scale, seed int64) *workload.Trace {
				n2, probes := 12, 26
				if scale == Full {
					n2, probes = 30, 62
				}
				tr := &workload.Trace{Name: "kv-pressure"}
				id := 0
				add := func(at float64, in, out int) {
					tr.Requests = append(tr.Requests, workload.Request{
						ID: id, Arrival: at, Input: in, Output: out,
					})
					id++
				}
				// Phase 1: big anchors land fast, filling roughly half of
				// one instance's KV memory.
				for i := 0; i < 14; i++ {
					add(1.0*float64(i), 8000+61*(i%4), 2400)
				}
				// Phase 2: a slow trickle creeps utilization toward the cap
				// gently enough that the smoothed KV signal crosses the
				// high-water mark well before admission stalls.
				for i := 0; i < n2; i++ {
					add(14+5.0*float64(i), 8000, 2400)
				}
				// Probes: small interactive requests riding through the
				// pressure window.
				for i := 0; i < probes; i++ {
					add(0.5+3.0*float64(i), 512, 48)
				}
				return tr
			},
		},
		{
			name:     "bursty",
			sla:      serving.SLA{TTFT: 2.5, TPOT: 0.15},
			maxBatch: 8,
			mk: func(scale Scale, seed int64) *workload.Trace {
				// On/off arrival bursts: chatbot-length requests compressed
				// into dense trains separated by long silences, so a good
				// policy must scale out *and* back in repeatedly.
				n := 48
				if scale == Full {
					n = 120
				}
				gen := workload.NewGenerator(workload.Chatbot, seed).Generate(n, 20)
				tr := &workload.Trace{Name: "bursty"}
				const bursts = 3
				per := n / bursts
				for i, r := range gen.Requests {
					burst := i / per
					if burst >= bursts {
						burst = bursts - 1
					}
					r.Arrival = 45*float64(burst) + 0.05*float64(i%per+1)
					tr.Requests = append(tr.Requests, r)
				}
				return tr
			},
		},
		{
			name:     "fault-burst",
			sla:      serving.SLA{TTFT: 2.5, TPOT: 0.15},
			maxBatch: 8,
			// A GPU-agent stall freezes policy-table sync over [8, 18) — right
			// before the dense burst lands. Requests decoding through the stall
			// window carry fault-stall mass on their critical path, so the
			// fault-stall-budget alert fires while the load signals are still
			// calm: an alert-consuming law pre-activates a reserve ahead of
			// the burst, while the static laws wait for the backlog it causes.
			faults: &faults.Schedule{Events: []faults.Event{
				{Kind: faults.AgentStall, At: 8, Duration: 10},
			}},
			mk: func(scale Scale, seed int64) *workload.Trace {
				steady, burst := 20, 60
				if scale == Full {
					steady, burst = 50, 150
				}
				gen := workload.NewGenerator(workload.Chatbot, seed).Generate(steady+burst, 20)
				tr := &workload.Trace{Name: "fault-burst"}
				for i, r := range gen.Requests {
					if i < steady {
						// A light trickle keeps one instance comfortably
						// ahead while its completions flow through the stall
						// window and accrue fault-stall critical-path mass.
						r.Arrival = 0.8 * float64(i)
					} else {
						// The burst: a chatbot mix compressed to ~60 req/s,
						// landing just after the stall ends. Small-output
						// requests stranded behind long decodes blow their
						// per-token budget within a couple of seconds — less
						// than a load-signal law's detect-and-activate gap —
						// so only a fleet scaled out *before* the burst (on
						// the fault alert) serves the early waves in time.
						r.Arrival = 19 + (1.0/60.0)*float64(i-steady)
					}
					tr.Requests = append(tr.Requests, r)
				}
				// Quiet-tail stragglers exercise scale-in afterwards.
				n := steady + burst
				for i := 0; i < 3; i++ {
					tr.Requests = append(tr.Requests, workload.Request{
						ID: n + i, Arrival: 80 + 15*float64(i), Input: 200, Output: 60,
					})
				}
				return tr
			},
		},
	}
}

// scaleStudyDeployment shapes the testbed into 1 prefill + decodes decode
// OPT-13B instances (one server half each).
func scaleStudyDeployment(g *topology.Graph, decodes int) (serving.Deployment, error) {
	sw := g.Switches()[0]
	pre, err := serving.NewInstanceSpec(serving.RolePrefill, g.ServerGPUs(0), 4, 1, sw, collective.SchemeRing)
	if err != nil {
		return serving.Deployment{}, err
	}
	var dec []serving.InstanceSpec
	for s := 1; s <= decodes; s++ {
		di, err := serving.NewInstanceSpec(serving.RoleDecode, g.ServerGPUs(s), 4, 1, sw, collective.SchemeRing)
		if err != nil {
			return serving.Deployment{}, err
		}
		dec = append(dec, di)
	}
	return serving.Deployment{Model: model.OPT13B(), Prefill: []serving.InstanceSpec{pre}, Decode: dec}, nil
}

// runScaleCase executes one (workload, policy) run with a fresh telemetry
// hub and scores it off the registry, erroring if the registry disagrees
// with the Results struct (the scoreboard must match the metrics exposition).
func runScaleCase(w scaleWorkload, policy string, auto *serving.AutoscaleConfig, scale Scale, seed int64) (ScaleStudyRow, []decisions.ShadowRank, error) {
	g := topology.Testbed()
	dep, err := scaleStudyDeployment(g, 3)
	if err != nil {
		return ScaleStudyRow{}, nil, err
	}
	hub := telemetry.New()
	sla := w.sla
	sys, err := serving.New(g, dep, serving.Options{
		MaxDecodeBatch: w.maxBatch,
		Autoscale:      auto,
		Telemetry:      hub,
		SLA:            &sla,
		// The SLO monitor runs on every case — including static-full — so
		// alert-consuming laws compete on the same observability the static
		// laws ignore, not on a private signal.
		SLO:    &slo.Config{Rules: scaleStudyRules(w.sla), Every: 0.5},
		Faults: w.faults,
	})
	if err != nil {
		return ScaleStudyRow{}, nil, err
	}
	res := sys.Run(w.mk(scale, seed))
	if res.Served == 0 {
		return ScaleStudyRow{}, nil, fmt.Errorf("ext-scale: %s/%s served nothing", w.name, policy)
	}

	reg := hub.Metrics
	met, _ := reg.Value("sla_requests_total", "met")
	missed, _ := reg.Value("sla_requests_total", "missed")
	if met+missed != float64(res.Served) {
		return ScaleStudyRow{}, nil, fmt.Errorf("ext-scale: %s/%s verdicts %g+%g != served %d",
			w.name, policy, met, missed, res.Served)
	}
	attainment := met / (met + missed)
	if want := res.Attainment(sla); attainment != want {
		return ScaleStudyRow{}, nil, fmt.Errorf("ext-scale: %s/%s registry attainment %g != results %g",
			w.name, policy, attainment, want)
	}
	gpu, ok := reg.Value("decode_gpu_seconds_total")
	if !ok || gpu != res.ActiveGPUSeconds {
		return ScaleStudyRow{}, nil, fmt.Errorf("ext-scale: %s/%s registry GPU-seconds %g != results %g",
			w.name, policy, gpu, res.ActiveGPUSeconds)
	}
	var occ, kv float64
	for i := 0; i < 3; i++ {
		inst := fmt.Sprintf("decode-%d", i)
		o, _ := reg.TimeAvg("decode_batch_occupancy", inst)
		k, _ := reg.TimeAvg("decode_kv_utilization", inst)
		occ += o
		kv += k
	}
	occ /= 3
	kv /= 3

	return ScaleStudyRow{
		Workload:    w.name,
		Policy:      policy,
		Served:      res.Served,
		Attainment:  attainment,
		GPUSeconds:  gpu,
		Occupancy:   occ,
		KVUtil:      kv,
		MeanTTFT:    mean(res.TTFTs()),
		MeanTPOT:    mean(res.TPOTs()),
		ScaleEvents: len(res.ScaleEvents),
	}, sys.DecisionLedger().ShadowRanking(), nil
}

// ScaleStudyData runs the full policy x workload sweep and returns the
// ranked scoreboard rows in deterministic order: workloads in definition
// order, the static reference first, then policies by rank.
//
// It is the one serving experiment that ignores env.Hub: each
// case runs on a private hub, because the scoreboard scores the case from
// that run's own registry.
func ScaleStudyData(env Env) ([]ScaleStudyRow, error) {
	var out []ScaleStudyRow
	for _, w := range scaleWorkloads() {
		static, _, err := runScaleCase(w, "static-full", nil, env.Scale, env.Seed)
		if err != nil {
			return nil, err
		}
		var scored []ScaleStudyRow
		// The first autoscaled run additionally carries the whole tuned policy
		// set as ledger shadows, so its decision ledger alone can rank every
		// law counterfactually — the single-run twin of this multi-run sweep.
		shadowRank := map[string]int{}
		for i, name := range serving.ScalePolicyNames {
			auto := &serving.AutoscaleConfig{
				InitialActive: 1,
				Interval:      0.5,
				// A 3 s signal time-constant matches the 0.5 s control
				// interval; the 15 s library default would lag the
				// KV-pressure ramp past its own stall.
				SignalWindow: 3,
				Policy:       studyLaw(name),
			}
			if i == 0 {
				for _, q := range serving.ScalePolicyNames {
					auto.ShadowPolicies = append(auto.ShadowPolicies, studyLaw(q))
				}
			}
			row, ranks, err := runScaleCase(w, name, auto, env.Scale, env.Seed)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				for _, r := range ranks {
					shadowRank[r.Law] = r.Rank
				}
			}
			scored = append(scored, row)
		}
		sort.SliceStable(scored, func(i, j int) bool {
			if scored[i].Attainment != scored[j].Attainment {
				return scored[i].Attainment > scored[j].Attainment
			}
			if scored[i].GPUSeconds != scored[j].GPUSeconds {
				return scored[i].GPUSeconds < scored[j].GPUSeconds
			}
			return scored[i].Policy < scored[j].Policy
		})
		for i := range scored {
			scored[i].Rank = i + 1
			scored[i].ShadowRank = shadowRank[scored[i].Policy]
		}
		out = append(out, static)
		out = append(out, scored...)
	}
	return out, nil
}

// studyLaw builds a fresh built-in law by name. The backlog law keeps its
// historical ext-scale tuning (trigger at 1 pending/instance, 10 s idle)
// rather than its conservative library defaults, so the comparison is
// against its best self. name must be one of serving.ScalePolicyNames.
func studyLaw(name string) serving.ScalePolicy {
	if name == "backlog" {
		return serving.NewBacklogPolicy(1, 10)
	}
	p, err := serving.NewScalePolicy(name)
	if err != nil {
		panic(err)
	}
	return p
}

// ExtScale renders the scaling-policy scoreboard.
func ExtScale(env Env) (*Report, error) {
	rows, err := ScaleStudyData(env)
	if err != nil {
		return nil, err
	}
	r := &Report{Name: "Extension §VII-b — scaling-policy study (ext-scale)"}
	t := r.AddTable("ScalePolicy x workload on OPT-13B (1 prefill + 3 decode halves; figures read from the telemetry registry)",
		"workload", "policy", "rank", "shadow", "served", "SLA attainment", "GPU-seconds",
		"occupancy (req, timeavg)", "KV util (timeavg)", "mean TTFT (s)", "mean TPOT (s)", "scale events")
	for _, d := range rows {
		rank := "-"
		if d.Rank > 0 {
			rank = fmt.Sprintf("%d", d.Rank)
		}
		shadow := "-"
		if d.ShadowRank > 0 {
			shadow = fmt.Sprintf("%d", d.ShadowRank)
		}
		t.AddRow(d.Workload, d.Policy, rank, shadow, fmt.Sprintf("%d", d.Served),
			fmtPct(d.Attainment), fmtF(d.GPUSeconds), fmtF(d.Occupancy),
			fmtF(d.KVUtil), fmtF(d.MeanTTFT), fmtF(d.MeanTPOT), fmt.Sprintf("%d", d.ScaleEvents))
	}
	r.AddNote("rank orders autoscaled policies per workload by SLA attainment, then GPU-seconds; static-full is the all-instances-always-on reference")
	r.AddNote("shadow is the law's rank in the single-run counterfactual replay of the workload's first autoscaled run's decision ledger (hstat decisions' shadow ranking) — one run predicting what the whole sweep measures")
	r.AddNote("attainment and GPU-seconds are read from sla_requests_total and decode_gpu_seconds_total (cross-checked against Results), occupancy/KV from the decode gauge time-averages — the scoreboard matches the metrics.prom of the same runs exactly")
	return r, nil
}
