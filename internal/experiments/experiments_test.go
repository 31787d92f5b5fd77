package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"heroserve/internal/core"
)

// The experiment tests assert the *shape* of each reproduced figure — who
// wins, in what order, by roughly what factor — per EXPERIMENTS.md. Absolute
// numbers are substrate-dependent and are not asserted. The full serving
// sweeps (Fig. 7, Fig. 8) are skipped under -short.

// skipUnderRace skips multi-minute full-sweep regression tests when the
// race detector is on: its ~4-10x slowdown pushes them past any reasonable
// CI budget, and the same serving/collective stack is raced by the quick
// determinism, faults, and report tests that do run.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("full sweep skipped under -race (covered by quick tests)")
	}
}

func TestFig1Shape(t *testing.T) {
	points := Fig1Data()
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	byGPU := map[string]Fig1Point{}
	for _, p := range points {
		byGPU[p.GPU] = p
		if p.ComputeS <= 0 || p.CommS <= 0 {
			t.Fatalf("%s: non-positive components %+v", p.GPU, p)
		}
	}
	l40, a100 := byGPU["L40"], byGPU["A100"]
	// Identical network => identical communication time.
	if l40.CommS != a100.CommS {
		t.Errorf("comm differs across GPUs: %g vs %g", l40.CommS, a100.CommS)
	}
	// The faster GPU has the higher communication share (paper: L40 >65%,
	// A100 >75%).
	if a100.CommShare <= l40.CommShare {
		t.Errorf("A100 share %.2f should exceed L40 share %.2f", a100.CommShare, l40.CommShare)
	}
	if l40.CommShare < 0.55 || l40.CommShare > 0.85 {
		t.Errorf("L40 comm share = %.2f, want ~0.65", l40.CommShare)
	}
	if a100.CommShare < 0.68 || a100.CommShare > 0.92 {
		t.Errorf("A100 comm share = %.2f, want ~0.75+", a100.CommShare)
	}
}

func TestFig2Shape(t *testing.T) {
	d := Fig2Data(1 << 20)
	if d.HeteroOneWayS >= d.HomoOneWayS {
		t.Errorf("analytic: hetero %g should beat homo %g", d.HeteroOneWayS, d.HomoOneWayS)
	}
	if d.HeteroSimS >= d.HomoSimS {
		t.Errorf("simulated: hetero %g should beat homo %g", d.HeteroSimS, d.HomoSimS)
	}
	if d.ReductionAnalytic < 0.30 {
		t.Errorf("analytic reduction %.1f%%, paper ~43%%", d.ReductionAnalytic*100)
	}
	if d.ReductionSim < 0.20 {
		t.Errorf("simulated reduction %.1f%%, paper ~43%%", d.ReductionSim*100)
	}
	// The paper's absolute scale for 1 MB: tens to a few hundred us.
	if d.HomoOneWayS < 100e-6 || d.HomoOneWayS > 500e-6 {
		t.Errorf("homo one-way = %g s, want the ~160-320 us regime", d.HomoOneWayS)
	}
}

func TestFig9Shape(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("fig9 trials under -short")
	}
	t.Parallel()
	points, err := Fig9Data(Env{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	perSize := map[int64]map[SystemKind]float64{}
	for _, p := range points {
		if perSize[p.MsgBytes] == nil {
			perSize[p.MsgBytes] = map[SystemKind]float64{}
		}
		perSize[p.MsgBytes][p.System] = p.Throughput
	}
	mean := map[SystemKind]float64{}
	for size, m := range perSize {
		hero := m[HeroServe]
		// HeroServe achieves the highest throughput at every size (paper's
		// headline for Fig. 9).
		for _, k := range []SystemKind{DistServeK, DSATPK, DSSwitchMLK} {
			if hero <= m[k] {
				t.Errorf("size %d: HeroServe %.2g <= %v %.2g", size, hero, k, m[k])
			}
		}
		// Rough factor (paper: +71.7% over DistServe; our substrate is
		// harsher on ring under sustained congestion).
		if hero < 1.3*m[DistServeK] {
			t.Errorf("size %d: HeroServe/DistServe = %.2f, want >= 1.3", size, hero/m[DistServeK])
		}
		for k, v := range m {
			mean[k] += v / float64(len(perSize))
		}
	}
	// Ordering among the baselines holds on average across sizes (per-size
	// curves may graze each other, as in the paper's plots):
	// DS-SwitchML > DS-ATP > DistServe.
	if mean[DSSwitchMLK] <= mean[DSATPK] {
		t.Errorf("mean: DS-SwitchML %.3g <= DS-ATP %.3g", mean[DSSwitchMLK], mean[DSATPK])
	}
	if mean[DSATPK] <= mean[DistServeK] {
		t.Errorf("mean: DS-ATP %.3g <= DistServe %.3g", mean[DSATPK], mean[DistServeK])
	}
}

func TestFig10Shape(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("fig10 serving runs under -short")
	}
	t.Parallel()
	tracks, err := Fig10Data(Env{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) != 2 {
		t.Fatalf("tracks = %d", len(tracks))
	}
	for _, ft := range tracks {
		utils := map[SystemKind]float64{}
		for _, s := range ft.Systems {
			utils[s.System] = s.MeanUtil
			if s.MeanUtil < 0 || s.PeakUtil < s.MeanUtil {
				t.Errorf("%dtracks %v: inconsistent utils %+v", ft.Tracks, s.System, s)
			}
		}
		// HeroServe holds the least (or tied-least) KV memory; DistServe
		// holds clearly the most (paper Fig. 10).
		hero := utils[HeroServe]
		for k, u := range utils {
			if hero > u*1.05 {
				t.Errorf("%dtracks: HeroServe util %.3f above %v's %.3f", ft.Tracks, hero, k, u)
			}
		}
		if utils[DistServeK] < hero*1.3 {
			t.Errorf("%dtracks: DistServe util %.3f should clearly exceed HeroServe %.3f",
				ft.Tracks, utils[DistServeK], hero)
		}
	}
}

func TestAlg1Shape(t *testing.T) {
	data, err := Alg1Data(Env{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 4 {
		t.Fatalf("runs = %d", len(data))
	}
	for _, d := range data {
		// Paper: solutions well within 10 minutes; ours are far faster, but
		// keep a generous bound for slow CI machines.
		if d.WallTime > 2*time.Minute {
			t.Errorf("%s: planner took %v", d.Topology, d.WallTime)
		}
		if d.Candidates <= 0 || d.Candidates > 20 {
			t.Errorf("%s: candidates = %d, want 1..20 (max_candi)", d.Topology, d.Candidates)
		}
		if d.PerturbIterations > 5 {
			t.Errorf("%s: perturbation iterations = %d, paper observes <= 5", d.Topology, d.PerturbIterations)
		}
		if d.H <= 0 {
			t.Errorf("%s: H = %g", d.Topology, d.H)
		}
	}
	// The hetero-enabled planner never does worse than the Ethernet-only
	// one on the same topology (its scheme set is a superset).
	for i := 0; i+1 < len(data); i += 2 {
		if data[i].Topology != data[i+1].Topology {
			t.Fatal("pairing broken")
		}
		hetero, homo := data[i], data[i+1]
		if !hetero.Hetero {
			hetero, homo = homo, hetero
		}
		if hetero.H < homo.H*0.999 {
			t.Errorf("%s: hetero H %.4g < homo H %.4g", hetero.Topology, hetero.H, homo.H)
		}
	}
}

// fig7 simulates the quick Fig. 7 sweeps once per test binary; the shape
// and rendering tests both read the same data.
var fig7 = struct {
	once sync.Once
	data []Fig7Workload
	err  error
}{}

func fig7Data(t *testing.T) []Fig7Workload {
	t.Helper()
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("fig7 sweeps under -short")
	}
	t.Parallel()
	fig7.once.Do(func() { fig7.data, fig7.err = Fig7Data(Env{Scale: Quick, Seed: 1}) })
	if fig7.err != nil {
		t.Fatal(fig7.err)
	}
	return fig7.data
}

func TestFig7Shape(t *testing.T) {
	data := fig7Data(t)
	if len(data) != 2 {
		t.Fatalf("workloads = %d", len(data))
	}
	for _, w := range data {
		rates := map[SystemKind]float64{}
		tpots := map[SystemKind]float64{}
		for _, s := range w.Systems {
			rates[s.System] = s.MaxPerGPURate
			tpots[s.System] = s.RefTPOT
			if len(s.Points) == 0 {
				t.Fatalf("%v %v: no sweep points", w.Workload, s.System)
			}
		}
		hero := rates[HeroServe]
		for _, k := range []SystemKind{DistServeK, DSATPK, DSSwitchMLK} {
			// 3% tolerance: the 90%-crossing interpolation carries noise,
			// and summarization scalability is prefill-compute-bound on
			// this substrate, so the systems tie there (EXPERIMENTS.md).
			if hero < rates[k]*0.97 {
				t.Errorf("%v: HeroServe max rate %.3g below %v's %.3g", w.Workload, hero, k, rates[k])
			}
		}
		// HeroServe's TPOT at the reference rate beats DistServe's (paper:
		// 18.6-49.2% lower).
		if tpots[HeroServe] >= tpots[DistServeK] {
			t.Errorf("%v: HeroServe TPOT %.3g not below DistServe %.3g",
				w.Workload, tpots[HeroServe], tpots[DistServeK])
		}
	}
	// The chatbot scalability gap is pronounced (paper: 1.53x).
	chat := data[0]
	var heroRate, distRate float64
	for _, s := range chat.Systems {
		switch s.System {
		case HeroServe:
			heroRate = s.MaxPerGPURate
		case DistServeK:
			distRate = s.MaxPerGPURate
		}
	}
	if heroRate < 1.2*distRate {
		t.Errorf("chatbot: HeroServe/DistServe = %.2f, want >= 1.2 (paper 1.53)", heroRate/distRate)
	}
}

// TestFig7ReportRendering checks that the rendered Fig. 7 report (the
// artifact cmd/heroserve ships) names every system and both workloads.
func TestFig7ReportRendering(t *testing.T) {
	data := fig7Data(t)
	var buf bytes.Buffer
	Fig7Render(data).Fprint(&buf)
	out := buf.String()
	for _, want := range []string{
		"Fig. 7", "chatbot", "summarization",
		"HeroServe", "DistServe", "DS-ATP", "DS-SwitchML",
		"vs DistServe", "SLA attainment",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered Fig. 7 report missing %q", want)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("fig8 sweeps under -short")
	}
	t.Parallel()
	tracks, err := Fig8Data(Env{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) != 2 {
		t.Fatalf("track panels = %d", len(tracks))
	}
	for _, ft := range tracks {
		rates := map[SystemKind]float64{}
		tpots := map[SystemKind]float64{}
		for _, s := range ft.Systems {
			rates[s.System] = s.MaxPerGPURate
			tpots[s.System] = s.RefTPOT
		}
		hero := rates[HeroServe]
		if hero < rates[DistServeK]*1.1 {
			t.Errorf("%dtracks: HeroServe/DistServe = %.2f, want >= 1.1 (paper 1.12-1.94)",
				ft.Tracks, hero/rates[DistServeK])
		}
		for _, k := range []SystemKind{DSATPK, DSSwitchMLK} {
			if hero < rates[k]*0.999 {
				t.Errorf("%dtracks: HeroServe below %v", ft.Tracks, k)
			}
		}
		if tpots[HeroServe] >= tpots[DistServeK] {
			t.Errorf("%dtracks: HeroServe TPOT %.3g not below DistServe %.3g",
				ft.Tracks, tpots[HeroServe], tpots[DistServeK])
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{Name: "demo"}
	tab := r.AddTable("tab", "a", "bb")
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	r.AddNote("note %d", 7)
	var buf bytes.Buffer
	r.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"# demo", "## tab", "a    bb", "333  4", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in rendered report:\n%s", want, out)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if byteSize(4<<20) != "4MiB" || byteSize(2<<30) != "2GiB" || byteSize(3<<10) != "3KiB" || byteSize(12) != "12B" {
		t.Error("byteSize")
	}
	if fmtUS(1e-6) != "1.0 us" {
		t.Errorf("fmtUS = %q", fmtUS(1e-6))
	}
	if fmtPct(0.5) != "50.0%" {
		t.Errorf("fmtPct = %q", fmtPct(0.5))
	}
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("scale strings")
	}
	for _, k := range AllSystems {
		if k.String() == "" || k.String() != core.Systems[k].Display {
			t.Errorf("unnamed system %d: %q", k, k.String())
		}
	}
	if sparkChar(-1) != " " || sparkChar(2) != "#" {
		t.Error("sparkChar clamping")
	}
}

func TestReportCSV(t *testing.T) {
	r := &Report{Name: "demo"}
	tab := r.AddTable("tab", "a", "b")
	tab.AddRow("1", "with, comma")
	r.AddNote("hello")
	var buf bytes.Buffer
	if err := r.FprintCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# demo", "# tab", "a,b", `1,"with, comma"`, "# note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in CSV:\n%s", want, out)
		}
	}
}

func TestCrossoverShape(t *testing.T) {
	data := CrossoverData()
	if len(data) != 3 {
		t.Fatalf("groups = %d", len(data))
	}
	for _, p := range data {
		if len(p.RingUS) != len(p.Sizes) || len(p.INAUS) != len(p.Sizes) || len(p.HeteroUS) != len(p.Sizes) {
			t.Fatalf("%s: ragged series", p.GroupDesc)
		}
		// Latencies grow with message size for every scheme.
		for i := 1; i < len(p.Sizes); i++ {
			if p.RingUS[i] <= p.RingUS[i-1] || p.INAUS[i] <= p.INAUS[i-1] || p.HeteroUS[i] <= p.HeteroUS[i-1] {
				t.Fatalf("%s: latency not monotone in size", p.GroupDesc)
			}
		}
		// For small decode-scale steps, an INA-family scheme beats ring on
		// every multi-server shape (the basis of the paper's selection).
		if p.GroupDesc != "4 GPUs, 1 server (NVLink only)" {
			if p.RingUS[0] <= p.INAUS[0] && p.RingUS[0] <= p.HeteroUS[0] {
				t.Errorf("%s: ring cheapest at 64KiB", p.GroupDesc)
			}
		}
	}
	if _, err := Crossover(Env{Scale: Quick, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestsFor(t *testing.T) {
	if requestsFor(2, 30, 10) != 60 {
		t.Error("rate-scaled")
	}
	if requestsFor(0.01, 30, 10) != 10 {
		t.Error("floor")
	}
}
