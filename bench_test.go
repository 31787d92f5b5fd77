package heroserve

// One benchmark per paper artifact: each regenerates the corresponding
// table/figure via internal/experiments and reports the headline metrics as
// benchmark outputs (b.ReportMetric), printing the full table once. Run:
//
//	go test -bench=. -benchmem
//
// The serving sweeps (Fig. 7, Fig. 8) take minutes per iteration by design —
// they replay full rate sweeps across four systems. Ablation benchmarks at
// the bottom isolate the design choices DESIGN.md calls out.

import (
	"os"
	"sync"
	"testing"

	"heroserve/internal/collective"
	"heroserve/internal/core"
	"heroserve/internal/experiments"
	"heroserve/internal/model"
	"heroserve/internal/netsim"
	"heroserve/internal/planner"
	"heroserve/internal/scheduler"
	"heroserve/internal/serving"
	"heroserve/internal/sim"
	"heroserve/internal/switchsim"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// printOnce renders a report to stderr the first time a benchmark runs.
var printed sync.Map

func printReport(b *testing.B, rep *experiments.Report) {
	b.Helper()
	if _, dup := printed.LoadOrStore(rep.Name, true); !dup {
		rep.Fprint(os.Stderr)
	}
}

func BenchmarkFig1PrefillBreakdown(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		points := experiments.Fig1Data()
		share = points[1].CommShare // A100
	}
	b.ReportMetric(share*100, "A100-comm-%")
	rep, err := experiments.Fig1(experiments.Env{})
	if err != nil {
		b.Fatal(err)
	}
	printReport(b, rep)
}

func BenchmarkFig2INAComparison(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		d := experiments.Fig2Data(1 << 20)
		reduction = d.ReductionSim
	}
	b.ReportMetric(reduction*100, "hetero-reduction-%")
	rep, err := experiments.Fig2(experiments.Env{})
	if err != nil {
		b.Fatal(err)
	}
	printReport(b, rep)
}

func BenchmarkFig7TestbedChatbot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.Fig7Data(experiments.Env{Scale: experiments.Quick, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		var hero, dist float64
		for _, s := range data[0].Systems {
			switch s.System {
			case experiments.HeroServe:
				hero = s.MaxPerGPURate
			case experiments.DistServeK:
				dist = s.MaxPerGPURate
			}
		}
		b.ReportMetric(hero/dist, "speedup-vs-DistServe")
		printReport(b, experiments.Fig7Render(data))
	}
}

func BenchmarkFig8Sim2And8Tracks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.Fig8Data(experiments.Env{Scale: experiments.Quick, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		var hero, dist float64
		for _, s := range data[0].Systems {
			switch s.System {
			case experiments.HeroServe:
				hero = s.MaxPerGPURate
			case experiments.DistServeK:
				dist = s.MaxPerGPURate
			}
		}
		b.ReportMetric(hero/dist, "2tracks-speedup")
		printReport(b, experiments.Fig8Render(data))
	}
}

func BenchmarkFig9INAThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig9Data(experiments.Env{Scale: experiments.Quick, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		var hero, dist float64
		n := 0
		for _, p := range points {
			switch p.System {
			case experiments.HeroServe:
				hero += p.Throughput
				n++
			case experiments.DistServeK:
				dist += p.Throughput
			}
		}
		b.ReportMetric(hero/float64(n)/1e9, "HeroServe-GB/s")
		b.ReportMetric(hero/dist, "vs-DistServe")
		printReport(b, experiments.Fig9Render(points))
	}
}

func BenchmarkFig10MemoryEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tracks, err := experiments.Fig10Data(experiments.Env{Scale: experiments.Quick, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		var hero, dist float64
		for _, s := range tracks[0].Systems {
			switch s.System {
			case experiments.HeroServe:
				hero = s.MeanUtil
			case experiments.DistServeK:
				dist = s.MeanUtil
			}
		}
		b.ReportMetric(hero*100, "HeroServe-KV-%")
		b.ReportMetric(dist*100, "DistServe-KV-%")
		printReport(b, experiments.Fig10Render(tracks))
	}
}

func BenchmarkAlg1PlannerSolve(b *testing.B) {
	g := topology.Testbed()
	pre, dec := planner.SplitPoolsByServer(g, 2)
	trace := workload.NewGenerator(workload.Chatbot, 1).Generate(512, 1)
	in := planner.Inputs{
		Model:         model.OPT66B(),
		Graph:         g,
		PrefillGPUs:   pre,
		DecodeGPUs:    dec,
		Workload:      trace.BatchStats(32),
		Lambda:        3,
		SLA:           serving.SLA{TTFT: 2.5, TPOT: 0.15},
		MinTensDecode: 8,
		Hetero:        true,
		Seed:          1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Solve(in); err != nil {
			b.Fatal(err)
		}
	}
	if rep, err := experiments.Alg1(experiments.Env{Scale: experiments.Quick, Seed: 1}); err == nil {
		printReport(b, rep)
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

// chatbotRun serves one OPT-66B chatbot trace on the testbed with the given
// policy and returns the mean positive TPOT.
func chatbotRun(b *testing.B, policy serving.CommPolicy) float64 {
	b.Helper()
	g := topology.Testbed()
	pre, dec := planner.SplitPoolsByServer(g, 2)
	trace512 := workload.NewGenerator(workload.Chatbot, 1).Generate(512, 1)
	in := planner.Inputs{
		Model:         model.OPT66B(),
		Graph:         g,
		PrefillGPUs:   pre,
		DecodeGPUs:    dec,
		Workload:      trace512.BatchStats(32),
		Lambda:        4,
		SLA:           serving.SLA{TTFT: 2.5, TPOT: 0.15},
		MinTensDecode: 8,
		Hetero:        true,
		Seed:          1,
	}
	plan, err := core.Plan(in)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := serving.New(g, plan.Deployment, serving.Options{Policy: policy})
	if err != nil {
		b.Fatal(err)
	}
	sys.InjectElephants(4, 512<<20, 60, 99)
	res := sys.Run(workload.NewGenerator(workload.Chatbot, 5).Generate(48, 4))
	var sum float64
	n := 0
	for _, m := range res.Requests {
		if m.TPOT > 0 {
			sum += m.TPOT
			n++
		}
	}
	return sum / float64(n)
}

// forcedScheme always runs one scheme (ablating the INA-vs-ring selector).
type forcedScheme struct {
	name   string
	scheme collective.Scheme
}

func (f forcedScheme) Name() string { return f.name }

func (f forcedScheme) AllReduce(ctx *serving.GroupCtx, msgBytes int64, steps int, done func()) {
	scheme := f.scheme
	if scheme.UsesINA() && ctx.Switch < 0 {
		scheme = collective.SchemeRing
	}
	ctx.Comm.AllReduce(scheme, ctx.Group, ctx.Switch, msgBytes, steps, done)
}

// BenchmarkAblationSchemeSelector compares the online scheduler against
// always-ring and always-hetero policies: the selector should match or beat
// both forced choices.
func BenchmarkAblationSchemeSelector(b *testing.B) {
	for i := 0; i < b.N; i++ {
		online := chatbotRun(b, core.NewOnlinePolicy(scheduler.DefaultConfig()))
		ring := chatbotRun(b, forcedScheme{name: "always-ring", scheme: collective.SchemeRing})
		hetero := chatbotRun(b, forcedScheme{name: "always-hetero", scheme: collective.SchemeHetero})
		b.ReportMetric(online*1e3, "online-TPOT-ms")
		b.ReportMetric(ring*1e3, "always-ring-TPOT-ms")
		b.ReportMetric(hetero*1e3, "always-hetero-TPOT-ms")
	}
}

// BenchmarkAblationLoadPenalty zeroes the load-penalty coupling (gamma -> 0+
// with no cross-policy update) by using a near-zero gamma, isolating Eq. 18.
func BenchmarkAblationLoadPenalty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := chatbotRun(b, core.NewOnlinePolicy(scheduler.DefaultConfig()))
		without := chatbotRun(b, core.NewOnlinePolicy(scheduler.Config{Gamma: 1e-9, Window: 0.1}))
		b.ReportMetric(with*1e3, "with-penalty-TPOT-ms")
		b.ReportMetric(without*1e3, "no-penalty-TPOT-ms")
	}
}

// BenchmarkAblationHeteroScheme disables the heterogeneous candidates in the
// online policy (Ethernet-only tables), isolating the NVLink pre-reduction.
func BenchmarkAblationHeteroScheme(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hetero := chatbotRun(b, core.NewOnlinePolicy(scheduler.DefaultConfig()))
		ethOnly := core.NewOnlinePolicy(scheduler.DefaultConfig())
		ethOnly.Hetero = false
		eth := chatbotRun(b, ethOnly)
		b.ReportMetric(hetero*1e3, "hetero-TPOT-ms")
		b.ReportMetric(eth*1e3, "ethernet-only-TPOT-ms")
	}
}

// BenchmarkAblationPerturbation measures Alg. 2's swap refinement: planner H
// with and without perturbation iterations.
func BenchmarkAblationPerturbation(b *testing.B) {
	g := topology.Testbed()
	pre, dec := planner.SplitPoolsByServer(g, 2)
	trace := workload.NewGenerator(workload.Chatbot, 1).Generate(512, 1)
	mk := func(iters int) planner.Inputs {
		return planner.Inputs{
			Model:           model.OPT66B(),
			Graph:           g,
			PrefillGPUs:     pre,
			DecodeGPUs:      dec,
			Workload:        trace.BatchStats(32),
			Lambda:          3,
			SLA:             serving.SLA{TTFT: 2.5, TPOT: 0.15},
			MinTensDecode:   8,
			Hetero:          true,
			MaxPerturbIters: iters,
			Seed:            1,
		}
	}
	for i := 0; i < b.N; i++ {
		with, err := planner.Solve(mk(5))
		if err != nil {
			b.Fatal(err)
		}
		in := mk(-1)
		in.MaxPerturbIters = 1 // setDefaults would turn 0 into 5; 1 swap round minimum
		without, err := planner.Solve(in)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(with.H, "H-with-perturb")
		b.ReportMetric(without.H, "H-minimal-perturb")
	}
}

// BenchmarkHeteroAllReduce64MB measures the heterogeneous collective on the
// testbed (the Fig. 9 primitive).
func BenchmarkHeteroAllReduce64MB(b *testing.B) {
	g := topology.Testbed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := netsim.New(g, eng)
		c := collective.NewComm(net, collective.NewStaticRouter(g))
		c.HeteroAllReduce(g.GPUs(), g.Switches()[0], 64<<20, 1, func() {})
		eng.Run()
	}
}

// BenchmarkSwitchDataPlane measures the simulated Tofino ingest path. The
// packet stream is a precomputed fixed cycle (one full slot window of
// complete aggregation rounds), so the per-op work mix is identical no
// matter what b.N -benchtime settles on — deriving the stream from the loop
// variable instead would shift the slot/completion cadence with b.N and make
// runs at different -benchtime values measure different workloads.
func BenchmarkSwitchDataPlane(b *testing.B) {
	const (
		workers = 8
		window  = 128
	)
	sw := switchsim.New("bench", 512, switchsim.DefaultEntryBytes)
	if _, err := sw.RegisterJob(1, switchsim.ModeSync, workers, window); err != nil {
		b.Fatal(err)
	}
	vals := make([]int32, sw.EntryElems())
	for i := range vals {
		vals[i] = int32(i)
	}
	pkts := make([]switchsim.Packet, workers*window)
	for j := range pkts {
		pkts[j] = switchsim.Packet{Job: 1, Seq: int64(j / workers), Worker: j % workers, Values: vals}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var seqBase int64
	for i := 0; i < b.N; i++ {
		p := pkts[i%len(pkts)]
		p.Seq += seqBase
		sw.Ingest(p)
		if (i+1)%len(pkts) == 0 {
			seqBase += window
		}
	}
}
