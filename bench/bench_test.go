package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// runMainEnv makes the test binary behave as the benchmark program, so the
// runner can start it as its own child processes.
const runMainEnv = "HEROSERVE_BENCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// benchmarkFile is BENCHMARK.json, the benchmark's description.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []metric        `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the program's
// workload and metric tables in step.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := loadBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for _, s := range specs {
		want = append(want, s.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	var e2e []metric
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metric)
		if m.Bound != wantBounds[m.Name] {
			t.Errorf("%s: bound %v, want %v", m.Name, m.Bound, wantBounds[m.Name])
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v,\nprogram %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v,\nprogram %v", b.PerLayer, perLayer)
	}
}

// wantBounds are the regression bounds of BENCHMARK.json. Each is at least
// three times the widest ten-seed spread measured on the reference host
// (README.md), so a change to a bound needs new measurements, not just an
// edit. setup_s has no spread limit and gets the largest bound.
var wantBounds = map[string]float64{
	"setup_s":            0.25,
	"sim_req_per_s":      0.21,
	"allocs_per_req":     0.15,
	"bytes_per_req":      0.15,
	"peak_rss_mb":        0.11,
	"sim_ttft_p50_s":     0.1,
	"sim_ttft_p99_s":     0.16,
	"sim_tpot_p99_s":     0.1,
	"sim_slo_attainment": 0.12,
}

// TestPanelSupportsP99 checks that every run pools enough requests for its
// p99 to have at least ten samples beyond it.
func TestPanelSupportsP99(t *testing.T) {
	for _, s := range specs {
		if p := supportedPercentile(s.panel * s.size(1)); p < 0.99 {
			t.Errorf("%s: %d pooled requests support only p%g", s.name, s.panel*s.size(1), 100*p)
		}
	}
}

// TestSeedFeedsInputs checks that a seed reproduces its inputs and another
// seed changes the trace, background traffic and faults, but not the
// deployment's planning inputs.
func TestSeedFeedsInputs(t *testing.T) {
	s, err := specByName("summ-pod8-faults")
	if err != nil {
		t.Fatal(err)
	}
	a, again, b := s.generate(1, 1), s.generate(1, 1), s.generate(2, 1)
	if !reflect.DeepEqual(a.trace, again.trace) || !reflect.DeepEqual(a.faults, again.faults) || !reflect.DeepEqual(a.bursts, again.bursts) {
		t.Error("the same seed generated different inputs")
	}
	if reflect.DeepEqual(a.trace.Requests, b.trace.Requests) || reflect.DeepEqual(a.faults, b.faults) ||
		reflect.DeepEqual(a.bursts, b.bursts) || a.elephantSeed == b.elephantSeed {
		t.Error("another seed left some input unchanged")
	}
	if !reflect.DeepEqual(a.plan.Workload, b.plan.Workload) || a.plan.Lambda != b.plan.Lambda {
		t.Error("the planning sample depends on the seed")
	}
}

// TestStreamSeedsDisjoint checks that no two random streams of a run's
// panel share a seed, for run seeds 1 to 10 of every workload. math/rand
// reduces a seed modulo 2^31-1, so seeds are compared after that reduction.
func TestStreamSeedsDisjoint(t *testing.T) {
	for _, s := range specs {
		for seed := int64(1); seed <= 10; seed++ {
			owner := map[int64]string{}
			for i := 0; i < s.panel; i++ {
				r := realization(seed, i)
				for stream := 0; stream < numStreams; stream++ {
					v := streamSeed(r, stream)
					used := []int64{v}
					if stream == streamBurstTrain {
						used = append(used, v+1)
					}
					for _, u := range used {
						u %= 1<<31 - 1
						name := fmt.Sprintf("realization %d stream %d", r, stream)
						if prev, ok := owner[u]; ok {
							t.Errorf("%s seed %d: %s and %s share seed %d", s.name, seed, prev, name, u)
						}
						owner[u] = name
					}
				}
			}
		}
	}
}

// TestSmoke runs every workload at 1/100 scale through an untraced run and
// the traced measurement, each repetition in a child process.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	t.Setenv(runMainEnv, "1")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rn := &runner{exe: exe, scale: 0.01, workdir: t.TempDir(), log: io.Discard,
		calibrate: func() float64 { return calibrationRef }}
	for i := range specs {
		s := &specs[i]
		o, err := rn.measure(s, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !o.Correct || o.Failed != 0 || o.Reps != s.panel {
			t.Errorf("%s: correct %v, failed %d, reps %d", s.name, o.Correct, o.Failed, o.Reps)
		}
		if _, err := report(o, endToEnd); err != nil {
			t.Error(err)
		}
		tr, err := rn.trace(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Correct {
			t.Errorf("%s: traced digest differs from the untraced one", s.name)
		}
		if _, err := report(tr, perLayer); err != nil {
			t.Error(err)
		}
		if s.telemetry && tr.Metrics["telemetry.trace_events_per_req"] <= 0 {
			t.Errorf("%s: no spans counted", s.name)
		}
	}
	t.Logf("four workloads, untraced and traced, in %.1f s", time.Since(start).Seconds())
}

// TestResultLine runs the program on one workload and checks that the last
// line of its output is the result object with exactly the table's metrics.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		trace string
		table []metric
	}{{"0", endToEnd}, {"1", perLayer}} {
		cmd := exec.Command(exe, "-workload", "chat-kv-backlog", "-seed", "2", "-seconds", "0",
			"-trace", c.trace, "-scale", "0.01", "-workdir", t.TempDir())
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("trace %s: %v", c.trace, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", c.trace, err)
		}
		var keys []string
		for k := range res {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
			t.Errorf("trace %s: keys %v, want %v", c.trace, keys, want)
		}
		var metrics map[string]reportedValue
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(c.table) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(metrics), len(c.table))
		}
		for _, m := range c.table {
			if got, ok := metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v", c.trace, m.Name, got)
			}
		}
	}
}
