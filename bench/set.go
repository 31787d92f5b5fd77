package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"time"
)

// setFile is a full set: for every workload, each end-to-end metric's value
// in each run, the runs' digests, and the traced run's per-layer metrics.
type setFile struct {
	Seed    int64                           `json:"seed"`
	Seconds float64                         `json:"seconds"`
	WallS   float64                         `json:"wall_s"`
	Runs    map[string]map[string][]float64 `json:"runs"`
	Digests map[string][]string             `json:"digests"`
	Layers  map[string]map[string]float64   `json:"layers"`
}

// setMain runs a full set and optionally compares it with a base set. The
// bounds and the base are read first, so a missing file does not cost a
// full set.
func setMain(rn *runner, reps int, seed int64, seconds float64, out, compare string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bounds, err := loadBounds(benchmarkPath)
	if err != nil {
		return fail(err)
	}
	var base *setFile
	if compare != "" {
		if base, err = loadSet(compare); err != nil {
			return fail(err)
		}
	}
	cur, err := rn.runSet(reps, seed, seconds)
	if err != nil {
		return fail(err)
	}
	printSet(os.Stdout, cur, bounds)
	if out != "" {
		if err := writeSet(out, cur); err != nil {
			return fail(err)
		}
	}
	if base != nil {
		printComparison(os.Stdout, base, cur, bounds)
	}
	return 0
}

// runSet measures every workload reps times, interleaving the workloads so
// slow drift on the host spreads over all of them, then traces each
// workload once. Run j uses seed+j.
func (rn *runner) runSet(reps int, seed int64, seconds float64) (*setFile, error) {
	start := time.Now()
	set := &setFile{Seed: seed, Seconds: seconds,
		Runs:    make(map[string]map[string][]float64),
		Digests: make(map[string][]string),
		Layers:  make(map[string]map[string]float64)}
	for j := 0; j < reps; j++ {
		for i := range specs {
			s := &specs[i]
			o, err := rn.measure(s, seed+int64(j), seconds)
			if err != nil {
				return nil, err
			}
			if !o.Correct || o.Failed > 0 {
				return nil, fmt.Errorf("%s run %d (seed %d) failed its output check", s.name, j, seed+int64(j))
			}
			if set.Runs[s.name] == nil {
				set.Runs[s.name] = make(map[string][]float64)
			}
			for _, m := range endToEnd {
				set.Runs[s.name][m.Name] = append(set.Runs[s.name][m.Name], o.Metrics[m.Name])
			}
			set.Digests[s.name] = append(set.Digests[s.name], o.Digest)
			fmt.Fprintf(os.Stderr, "run %d/%d %-20s %2d reps  %.1f req/s  digest %s\n",
				j+1, reps, s.name, o.Reps, o.Metrics["sim_req_per_s"], o.Digest)
		}
	}
	for i := range specs {
		s := &specs[i]
		o, err := rn.trace(s, seed)
		if err != nil {
			return nil, err
		}
		if !o.Correct {
			return nil, fmt.Errorf("%s traced run disagrees with its untraced replays", s.name)
		}
		set.Layers[s.name] = o.Metrics
		fmt.Fprintf(os.Stderr, "traced %-20s digest %s\n", s.name, o.Digest)
	}
	set.WallS = time.Since(start).Seconds()
	return set, nil
}

func loadSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set setFile
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

func writeSet(path string, set *setFile) error {
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// boundedMetric is an end-to-end metric of BENCHMARK.json with its bound.
type boundedMetric struct {
	metric
	Bound float64 `json:"bound"`
}

// loadBounds reads the end-to-end bounds from the benchmark description.
func loadBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var desc struct {
		EndToEnd []boundedMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &desc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := make(map[string]float64, len(desc.EndToEnd))
	for _, m := range desc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// printSet prints each workload's end-to-end metrics as median [q1, q3]
// with the run-to-run spread against the bound, then the per-layer metrics.
func printSet(w io.Writer, set *setFile, bounds map[string]float64) {
	fmt.Fprintf(w, "full set: seed %d, %.0f s per run, %.0f s wall\n", set.Seed, set.Seconds, set.WallS)
	for i := range specs {
		name := specs[i].name
		runs := set.Runs[name]
		fmt.Fprintf(w, "\n%s (%d runs, digests %v)\n", name, len(runs["setup_s"]), set.Digests[name])
		fmt.Fprintf(w, "  %-22s %14s %14s %14s %8s %7s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "unit")
		for _, m := range endToEnd {
			v := runs[m.Name]
			q1, q3 := quartiles(v)
			fmt.Fprintf(w, "  %-22s %14.6g %14.6g %14.6g %7.2f%% %6.1f%%  %s\n",
				m.Name, median(v), q1, q3, 100*spread(v), 100*bounds[m.Name], m.Unit)
		}
	}
	fmt.Fprintf(w, "\nper-layer metrics (traced run of each workload)\n  %-36s", "metric")
	for i := range specs {
		fmt.Fprintf(w, " %20s", specs[i].name)
	}
	fmt.Fprintln(w)
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-36s", m.Name+" ("+m.Unit+")")
		for i := range specs {
			fmt.Fprintf(w, " %20.6g", set.Layers[specs[i].name][m.Name])
		}
		fmt.Fprintln(w)
	}
}

// pairedBounds are the bounds of the metrics a seed determines, for sets
// that replayed the same seeds. Between such sets any change is the code's:
// allocation counts repeat within 0.001 % and simulated metrics exactly.
// BENCHMARK.json's bounds hold for runs of different seeds, whose inputs
// alone move these metrics by several percent.
var pairedBounds = map[string]float64{
	"allocs_per_req":     0.02,
	"bytes_per_req":      0.02,
	"sim_ttft_p50_s":     0,
	"sim_ttft_p99_s":     0,
	"sim_tpot_p99_s":     0,
	"sim_slo_attainment": 0,
}

// printComparison prints one row per workload and end-to-end metric: the
// base and new medians, the change (positive is worse), the bound and the
// verdict. When both sets replayed the same seeds, the metrics the seed
// determines are compared run by run against pairedBounds, and each
// workload's digests tell whether the simulation changed at all.
func printComparison(w io.Writer, base, cur *setFile, bounds map[string]float64) {
	paired := base.Seed == cur.Seed
	if paired {
		fmt.Fprintf(w, "\nboth sets start at seed %d: the metrics a seed determines are compared run by run\n", cur.Seed)
	}
	fmt.Fprintf(w, "\n%-20s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "new", "worse by", "bound", "verdict")
	counts := map[string]int{}
	for i := range specs {
		name := specs[i].name
		for _, m := range endToEnd {
			b, c := base.Runs[name][m.Name], cur.Runs[name][m.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			higher := m.Better == "higher"
			worse := (median(c) - median(b)) / median(b)
			if higher {
				worse = 0 - worse // 0 - 0 is +0, which prints without a sign
			}
			bound, v := bounds[m.Name], ""
			if pb, ok := pairedBounds[m.Name]; ok && paired && len(b) == len(c) {
				bound, v = pb, pairedVerdict(b, c, pb, higher)
			} else {
				v = verdict(b, c, bound, higher)
			}
			counts[v]++
			fmt.Fprintf(w, "%-20s %-20s %14.6g %14.6g %8.2f%% %6.1f%%  %s\n",
				name, m.Name, median(b), median(c), 100*worse, 100*bound, v)
		}
		if paired {
			same := reflect.DeepEqual(base.Digests[name], cur.Digests[name])
			fmt.Fprintf(w, "%-20s simulation unchanged (same digests): %v\n", name, same)
		}
	}
	fmt.Fprintf(w, "better %d, same %d, worse %d, unresolved %d\n",
		counts[verdictBetter], counts[verdictSame], counts[verdictWorse], counts[verdictUnresolved])
}
