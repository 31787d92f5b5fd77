package heroserve

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"heroserve/internal/core"
	"heroserve/internal/workload"
)

// The golden gate: same-seed runs export byte-identical surfaces, so
// TestGoldens replays a pinned matrix and diffs each run against the
// committed testdata/golden/, failing on any behavioural drift (a scheme
// pick, a link's busy-seconds, a TTFT bucket, a ledger's regret, an alert's
// stamps). Under -tags refpaths every command runs the reference simulator
// paths, which must hit the SAME goldens.
var update = flag.Bool("update", false, "rewrite testdata/golden/ from this run (after an intended behaviour change; review the diff)")

const goldenDir = "testdata/golden"

// goldenCase is one pinned run: a generated trace replayed by serve.
type goldenCase struct {
	name  string
	kind  workload.Kind
	n     int
	rate  float64
	seed  int64
	serve string // serve's flags, space-separated
}

// goldenCases is the pinned matrix. It is kept cheap (testbed, opt-13b,
// plus one short pod-scale run) while covering all four systems, every
// all-reduce scheme, both workload kinds and background elephant traffic
// (TestGoldenMatrixCoverage holds it to that).
var goldenCases = []goldenCase{
	{"heroserve-testbed-chatbot", workload.Chatbot, 40, 4, 7,
		"-system heroserve -topology testbed -model opt-13b -seed 7"},
	{"distserve-testbed-chatbot", workload.Chatbot, 40, 4, 7,
		"-system distserve -topology testbed -model opt-13b -seed 7"},
	// Summarization needs the paper's long-context settings (TTFT 25 s,
	// batch Q=1) to be plannable on the testbed.
	{"ds-switchml-testbed-summarization", workload.Summarization, 16, 0.2, 11,
		"-system ds-switchml -topology testbed -model opt-13b -seed 11 -elephants 2 -ttft 25 -tpot 0.2 -batch 1"},
	// Autoscaled run: pins the scale-policy decision stream, the
	// decode_active_instances trajectory and the incremental
	// decode_gpu_seconds_total ledger.
	{"heroserve-testbed-chatbot-autoscaled", workload.Chatbot, 40, 4, 7,
		"-system heroserve -topology testbed -model opt-13b -seed 7 -autoscale -scale-policy hybrid-slo"},
	// Pod-scale run: pins the 896 link_busy_seconds series of the 8-track
	// pod and the online policy's collective decisions across its 18
	// switches, which the pod-scale hot loops (busy-link charging, detour
	// ranking, decision audit) feed.
	{"heroserve-pod8-summarization", workload.Summarization, 12, 0.5, 11,
		"-system heroserve -topology pod8 -servers 24 -model opt-66b -seed 11 -elephants 4 -ttft 25 -tpot 0.2 -batch 1"},
	// Cross-server runs: a decode tensor-parallel floor of 8 spans two
	// testbed servers, so each system runs its native INA scheme (testbed
	// OPT-13B groups otherwise fit on one server and stay on the ring).
	{"heroserve-testbed-chatbot-xserver", workload.Chatbot, 40, 4, 7,
		"-system heroserve -topology testbed -model opt-13b -seed 7 -min-tens-decode 8"},
	{"ds-atp-testbed-chatbot-xserver", workload.Chatbot, 40, 4, 7,
		"-system ds-atp -topology testbed -model opt-13b -seed 7 -min-tens-decode 8"},
	{"ds-switchml-testbed-chatbot-xserver", workload.Chatbot, 40, 4, 7,
		"-system ds-switchml -topology testbed -model opt-13b -seed 7 -min-tens-decode 8"},
}

// goldenSurfaces are the files each case pins, by extension: the C-sorted
// Prometheus exposition, and the decisions, alerts and trace -tsv renderings
// of hstat.
var goldenSurfaces = []string{"prom", "decisions.tsv", "alerts.tsv", "trace.tsv"}

func TestGoldens(t *testing.T) {
	if *update && buildTags != "" {
		t.Fatalf("-update with -tags %s: only the fast paths write goldens; the reference paths must match them", buildTags)
	}
	serve, hstat := binary(t, "cmd/serve"), binary(t, "cmd/hstat")
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			trace := filepath.Join(dir, "trace.json")
			var buf bytes.Buffer
			if err := workload.NewGenerator(c.kind, c.seed).Generate(c.n, c.rate).Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(trace, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			// -out arms the performance observatory on every golden run:
			// its report is wall-clock data, never compared, but producing
			// the goldens with sampling on is the standing proof that the
			// sampler perturbs no golden surface.
			bundle := filepath.Join(dir, "run")
			args := append([]string{"-trace", trace}, strings.Fields(c.serve)...)
			if out, err := exec.Command(serve, append(args, "-out", bundle)...).CombinedOutput(); err != nil {
				t.Fatalf("serve %s: %v\n%s", c.serve, err, out)
			}
			if st, err := os.Stat(filepath.Join(bundle, "perf.json")); err != nil || st.Size() == 0 {
				t.Errorf("the run left no perf report (%v)", err)
			}
			for _, ext := range goldenSurfaces {
				var got []byte
				if ext == "prom" {
					prom, err := os.ReadFile(filepath.Join(bundle, "metrics.prom"))
					if err != nil {
						t.Fatal(err)
					}
					lines := strings.Split(strings.TrimSuffix(string(prom), "\n"), "\n")
					slices.Sort(lines)
					got = []byte(strings.Join(lines, "\n") + "\n")
				} else {
					kind := strings.TrimSuffix(ext, ".tsv")
					cmd := exec.Command(hstat, kind, "-tsv", bundle)
					var stderr bytes.Buffer
					cmd.Stderr = &stderr
					var err error
					if got, err = cmd.Output(); err != nil {
						t.Fatalf("hstat %s -tsv: %v\n%s", kind, err, stderr.Bytes())
					}
				}
				checkGolden(t, filepath.Join(goldenDir, c.name+"."+ext), got)
			}
		})
	}
}

// checkGolden compares got with the golden file, or rewrites it under
// -update; drift is reported as a unified diff.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Errorf("%v (go test -run '^TestGoldens$' . -update writes it)", err)
		return
	}
	if bytes.Equal(got, want) {
		return
	}
	gotFile := filepath.Join(t.TempDir(), filepath.Base(golden))
	if err := os.WriteFile(gotFile, got, 0o644); err != nil {
		t.Fatal(err)
	}
	diff, _ := exec.Command("diff", "-u", golden, gotFile).CombinedOutput()
	t.Errorf("%s drifted (if the change is intended, go test -run '^TestGoldens$' . -update rewrites it; commit the result):\n%s", golden, diff)
}

// TestGoldenMatrixCoverage keeps the golden gate pinning every system and
// every all-reduce scheme: each row of the systems table is the -system of
// some case, and each collective_ops_total{scheme} series is nonzero in at
// least one committed golden exposition. Every case has all its surfaces
// committed, and every committed golden is some case's surface. It reads
// only committed files.
func TestGoldenMatrixCoverage(t *testing.T) {
	cased := map[string]bool{}
	produced := map[string]bool{}
	for _, c := range goldenCases {
		args := strings.Fields(c.serve)
		if i := slices.Index(args, "-system"); i >= 0 && i+1 < len(args) {
			cased[args[i+1]] = true
		}
		for _, ext := range goldenSurfaces {
			file := c.name + "." + ext
			produced[file] = true
			if _, err := os.Stat(filepath.Join(goldenDir, file)); err != nil {
				t.Errorf("case %s lacks its %s golden: %v", c.name, ext, err)
			}
		}
	}
	for _, s := range core.Systems {
		if !cased[s.Name] {
			t.Errorf("no golden case runs -system %s", s.Name)
		}
	}
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !produced[e.Name()] {
			t.Errorf("%s/%s is no case's surface", goldenDir, e.Name())
		}
	}

	series := regexp.MustCompile(`(?m)^collective_ops_total\{scheme="([^"]+)"\} (\S+)$`)
	ops := map[string]float64{}
	for _, c := range goldenCases {
		file := filepath.Join(goldenDir, c.name+".prom")
		b, err := os.ReadFile(file)
		if err != nil {
			continue // reported above
		}
		for _, m := range series.FindAllStringSubmatch(string(b), -1) {
			v, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			ops[m[1]] += v
		}
	}
	for _, s := range core.Systems {
		if _, ok := ops[s.Scheme.String()]; !ok {
			t.Errorf("no golden exports collective_ops_total{scheme=%q}", s.Scheme)
		}
	}
	for scheme, n := range ops {
		if n == 0 {
			t.Errorf("collective_ops_total{scheme=%q} is 0 in every golden", scheme)
		}
	}
}
