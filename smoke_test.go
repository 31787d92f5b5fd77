// Smoke tests: every command under cmd/ and every program under examples/
// must compile and run to completion with tiny parameters. These catch
// wiring regressions (flag parsing, topology construction, planner
// defaults) that package-level unit tests cannot see.
package heroserve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"heroserve/internal/telemetry"
	"heroserve/internal/workload"
)

// run executes `go run ./dir args...` and returns combined output.
func run(t *testing.T, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./" + dir}, args...)...)
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./%s %v: %v\n%s", dir, args, err, out)
	}
	return string(out)
}

func TestCommandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests compile binaries")
	}
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	alertsFile := filepath.Join(t.TempDir(), "run.alerts.json")
	cases := []struct {
		name string
		dir  string
		args []string
		// pre runs before the command (to generate inputs).
		pre func(t *testing.T)
	}{
		{name: "heroserve-list", dir: "cmd/heroserve", args: []string{"-list"}},
		{name: "heroserve-fig1", dir: "cmd/heroserve", args: []string{"-exp", "fig1"}},
		{name: "heroserve-fig2-csv", dir: "cmd/heroserve", args: []string{"-exp", "fig2", "-format", "csv"}},
		{name: "planner", dir: "cmd/planner", args: []string{"-model", "opt-13b", "-rate", "1"}},
		{name: "tracegen", dir: "cmd/tracegen", args: []string{"-n", "5", "-rate", "2", "-stats"}},
		{name: "topoviz", dir: "cmd/topoviz", args: []string{"-topology", "testbed"}},
		{
			name: "hstat",
			dir:  "cmd/hstat",
			args: []string{"alerts", alertsFile},
			pre: func(t *testing.T) {
				if err := os.WriteFile(alertsFile, []byte(`{"meta":{"rules":[],"every":1,"end":5},"alerts":[]}`), 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "serve",
			dir:  "cmd/serve",
			args: []string{"-trace", traceFile, "-model", "opt-13b"},
			pre: func(t *testing.T) {
				out := run(t, "cmd/tracegen", "-n", "5", "-rate", "2")
				if err := os.WriteFile(traceFile, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{name: "example-quickstart", dir: "examples/quickstart"},
		{name: "example-chatbot", dir: "examples/chatbot"},
		{name: "example-summarization", dir: "examples/summarization"},
		{name: "example-inaswitch", dir: "examples/inaswitch"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if c.pre != nil {
				c.pre(t)
			}
			out := run(t, c.dir, c.args...)
			if len(out) == 0 {
				t.Fatalf("%s produced no output", c.name)
			}
		})
	}
}

// TestCommandsRejectBadInput: a malformed flag or input file must give a
// one-line "<binary>: ..." error and exit status 2, never a panic. Each
// binary is built once and run directly, because `go run` replaces the
// program's exit status with its own.
func TestCommandsRejectBadInput(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests compile binaries")
	}
	dir := t.TempDir()
	truncated := filepath.Join(dir, "truncated.json")
	if err := os.WriteFile(truncated, []byte(`{"meta":{"rules":[`), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.json")
	// A valid trace, so each serve row fails on its one bad flag alone.
	trace := filepath.Join(dir, "trace.json")
	tf, err := os.Create(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.NewGenerator(workload.Chatbot, 1).Generate(3, 1).Encode(tf); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	// Traces the simulator cannot replay: serve must refuse them up front.
	badTrace := func(name, rec string) string {
		path := filepath.Join(dir, name+".json")
		body := `{"requests":[{"id":0,"arrival":0.5,"input":8,"output":4},` + rec + `]}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	negArrival := badTrace("neg-arrival", `{"id":1,"arrival":-1,"input":8,"output":4}`)
	unsorted := badTrace("unsorted", `{"id":1,"arrival":0.25,"input":8,"output":4}`)
	negInput := badTrace("neg-input", `{"id":1,"arrival":1,"input":-5,"output":4}`)
	zeroOutput := badTrace("zero-output", `{"id":1,"arrival":1,"input":8,"output":0}`)
	// A ledger whose collective record picks a candidate it does not have.
	badPick := filepath.Join(dir, "bad-pick.json")
	if err := os.WriteFile(badPick, []byte(`{"meta":{},"collective":[{"t":1,"candidates":[{"label":"r0","scheme":"ring"}],"chosen":-1}],"scale":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Real artifacts, so each -diff row fails on its one view flag alone.
	alertsLog := filepath.Join("internal", "telemetry", "slo", "testdata", "alerts.json")
	ledger := filepath.Join("internal", "telemetry", "decisions", "testdata", "ledger.json")
	spans := filepath.Join("internal", "telemetry", "critpath", "testdata", "spans.json")
	bins := map[string]string{}
	for _, c := range []struct {
		bin  string
		args []string
	}{
		{"tracegen", []string{"-n", "0"}},
		{"tracegen", []string{"-n", "-3"}},
		{"tracegen", []string{"-rate", "0"}},
		{"tracegen", []string{"-rate", "-1"}},
		{"tracegen", []string{"-rate", "NaN"}},
		{"hstat", nil},
		{"hstat", []string{"bogus", truncated}},
		{"hstat", []string{"alerts"}},
		{"hstat", []string{"alerts", truncated, truncated}},
		{"hstat", []string{"decisions", "-diff", truncated}},
		{"hstat", []string{"perf", "-top", "3", truncated}},
		{"hstat", []string{"trace", missing}},
		{"hstat", []string{"trace", truncated}},
		{"hstat", []string{"alerts", truncated}},
		{"hstat", []string{"decisions", truncated}},
		{"hstat", []string{"decisions", badPick}},
		{"hstat", []string{"perf", truncated}},
		{"hstat", []string{"alerts", "-diff", "-rule", "nosuch", alertsLog, alertsLog}},
		{"hstat", []string{"alerts", "-state", "firing", "-diff", alertsLog, alertsLog}},
		{"hstat", []string{"alerts", "-state", "bogus", alertsLog}},
		{"hstat", []string{"alerts", "-diff", "-summary", alertsLog, alertsLog}},
		{"hstat", []string{"alerts", "-diff", "-tsv", alertsLog, alertsLog}},
		{"hstat", []string{"decisions", "-diff", "-tsv", ledger, ledger}},
		{"hstat", []string{"decisions", "-diff", "-regret", ledger, ledger}},
		{"hstat", []string{"trace", "-diff", "-top", "10", spans, spans}},
		{"hstat", []string{"trace", "-top", "-1", spans}},
		{"hstat", []string{"diff", dir}},
		{"hstat", []string{"diff", "-tsv", dir, dir}},
		{"hstat", []string{"diff", truncated, dir}},
		{"serve", []string{"-trace", trace, "-topology", "bogus"}},
		{"serve", []string{"-trace", trace, "-model", "bogus"}},
		{"serve", []string{"-trace", trace, "-system", "bogus"}},
		{"serve", []string{"-trace", trace, "-system", "heroserve,distserve"}},
		{"serve", []string{"-trace", trace, "-system", "heroserve,bogus", "-daemon"}},
		{"serve", []string{"-trace", missing}},
		{"serve", []string{"-trace", truncated}},
		{"serve", []string{"-trace", negArrival}},
		{"serve", []string{"-trace", unsorted}},
		{"serve", []string{"-trace", negInput}},
		{"serve", []string{"-trace", zeroOutput}},
		{"serve", []string{"-trace", trace, "-topology", "pod8", "-servers", "0"}},
		{"serve", []string{"-trace", trace, "-topology", "pod2", "-servers", "1"}},
		{"serve", []string{"-trace", trace, "-batch", "0"}},
		{"serve", []string{"-trace", trace, "-min-tens-decode", "-2"}},
		{"serve", []string{"-trace", trace, "-elephants", "-3"}},
		{"serve", []string{"-trace", trace, "-ttft", "NaN", "-tpot", "NaN"}},
		{"serve", []string{"-trace", trace, "-tpot", "Inf"}},
		{"serve", []string{"-trace", trace, "-ttft", "0"}},
		{"serve", []string{"-trace", trace, "-out", trace}},
		{"serve", []string{"-trace", trace, "-slo-rules", missing}},
		{"serve", []string{"-trace", trace, "-slo-rules", truncated}},
		{"serve", []string{"-trace", trace, "-daemon", "-publish-every", "0"}},
		{"serve", []string{"-trace", trace, "-daemon", "-publish-every", "NaN"}},
		{"serve", []string{"-trace", trace, "-daemon", "-publish-every", "Inf"}},
		{"serve", []string{"-trace", trace, "-scale-policy", "bogus"}},
		{"serve", []string{"-trace", trace, "-max-runs", "-1"}},
		{"serve", []string{"-trace", trace, "-pprof"}},
		{"heroserve", nil},
		{"heroserve", []string{"-exp", "bogus"}},
		{"heroserve", []string{"-exp", "fig1", "-scale", "bogus"}},
		{"heroserve", []string{"-exp", "fig1", "-format", "bogus"}},
		{"heroserve", []string{"-exp", "fig1", "-out", trace}},
		{"planner", []string{"-topology", "bogus"}},
		{"planner", []string{"-model", "bogus"}},
		{"planner", []string{"-workload", "bogus"}},
		{"planner", []string{"-topology", "pod2", "-servers", "0"}},
		{"planner", []string{"-topology", "pod8", "-servers", "1"}},
		{"planner", []string{"-rate", "0"}},
		{"planner", []string{"-ttft", "Inf", "-tpot", "NaN"}},
		{"planner", []string{"-tpot", "NaN"}},
		{"planner", []string{"-ttft", "-1"}},
		{"planner", []string{"-batch", "-1"}},
		{"planner", []string{"-min-tens-decode", "-1"}},
		{"topoviz", []string{"-topology", "bogus"}},
		{"topoviz", []string{"-topology", "pod8", "-servers", "0"}},
		{"topoviz", []string{"-topology", "pcie", "-servers", "-2"}},
	} {
		bin, ok := bins[c.bin]
		if !ok {
			bin = filepath.Join(dir, c.bin)
			if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+c.bin).CombinedOutput(); err != nil {
				t.Fatalf("go build ./cmd/%s: %v\n%s", c.bin, err, out)
			}
			bins[c.bin] = bin
		}
		out, err := exec.Command(bin, c.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s %v: err %v, want exit status 2\n%s", c.bin, c.args, err, out)
		}
		if strings.Contains(string(out), "goroutine") {
			t.Errorf("%s %v panicked:\n%s", c.bin, c.args, out)
		}
		if lines := strings.Count(strings.TrimSpace(string(out)), "\n") + 1; lines != 1 ||
			!strings.HasPrefix(string(out), c.bin+": ") {
			t.Errorf("%s %v: want a one-line \"%s: ...\" error, got:\n%s", c.bin, c.args, c.bin, out)
		}
	}
}

// TestObserversDoNotPerturbTheRun: serving metrics from a daemon only reads
// the run. One trace replayed plain and with -daemon serves the same
// requests in the same simulated time and exports the same metrics, byte for
// byte.
func TestObserversDoNotPerturbTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests compile binaries")
	}
	dir := t.TempDir()
	serve := filepath.Join(dir, "serve")
	if out, err := exec.Command("go", "build", "-o", serve, "./cmd/serve").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/serve: %v\n%s", err, out)
	}
	trace := filepath.Join(dir, "trace.json")
	tf, err := os.Create(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.NewGenerator(workload.Chatbot, 7).Generate(40, 4).Encode(tf); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	// replay runs serve with extra flags and returns its served= line and
	// metrics export. A daemon run is interrupted once its runs complete.
	replay := func(name string, extra ...string) (served string, metrics []byte) {
		t.Helper()
		out := filepath.Join(dir, name)
		args := append([]string{"-trace", trace, "-system", "heroserve", "-topology", "testbed",
			"-model", "opt-13b", "-seed", "7", "-out", out}, extra...)
		cmd := exec.Command(serve, args...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		kill := time.AfterFunc(2*time.Minute, func() { cmd.Process.Kill() })
		defer kill.Stop()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "served=") {
				served = line
			}
			if strings.Contains(line, "runs complete") {
				cmd.Process.Signal(os.Interrupt)
			}
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("serve %s: %v", name, err)
		}
		if metrics, err = os.ReadFile(filepath.Join(out, "metrics.prom")); err != nil {
			t.Fatal(err)
		}
		return served, metrics
	}
	plainServed, plain := replay("plain")
	if plainServed == "" || len(plain) == 0 {
		t.Fatalf("plain run printed no served= line or no metrics")
	}
	daemonServed, daemon := replay("daemon", "-daemon", "-listen", "127.0.0.1:0", "-publish-every", "1")
	if daemonServed != plainServed {
		t.Errorf("daemon run: %q, plain run: %q", daemonServed, plainServed)
	}
	if !bytes.Equal(daemon, plain) {
		t.Errorf("daemon run exported different metrics than the plain run")
	}
}

// TestHeroserveTelemetryKeepsTheReport: arming telemetry on an experiment
// leaves its report alone on stdout, byte for byte, and every serving run of
// the experiment reaches the hub, the ablation variants included. Fig. 7
// runs HeroServe's online policy on every sweep point, so an observer that
// steered a pick would move its max rates.
func TestHeroserveTelemetryKeepsTheReport(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests compile binaries")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "heroserve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/heroserve").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/heroserve: %v\n%s", err, out)
	}
	report := func(exp string, extra ...string) []byte {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"-exp", exp, "-format", "json"}, extra...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("heroserve -exp %s %v: %v\n%s", exp, extra, err, stderr.Bytes())
		}
		return out
	}
	for _, exp := range []string{"ablations", "fig7"} {
		plain := report(exp)
		bundle := filepath.Join(dir, exp)
		armed := report(exp, "-out", bundle)
		if !bytes.Equal(plain, armed) {
			t.Errorf("%s: -out changed stdout:\nplain:\n%s\narmed:\n%s", exp, plain, armed)
		}
		var rep struct {
			Tables []struct {
				Rows [][]string `json:"rows"`
			} `json:"tables"`
		}
		if err := json.Unmarshal(armed, &rep); err != nil || len(rep.Tables) == 0 || len(rep.Tables[0].Rows) == 0 {
			t.Fatalf("%s: armed stdout is not a JSON report (%v):\n%s", exp, err, armed)
		}
		metrics, err := os.ReadFile(filepath.Join(bundle, "metrics.prom"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(metrics, []byte("serving_requests_completed_total")) {
			t.Errorf("%s: metrics export lacks serving_requests_completed_total:\n%s", exp, metrics)
		}
	}
}

// TestHstatReadsTheBundle: one serve -out run writes all six bundle files,
// and every hstat kind reads the bundle directory exactly as it reads the
// kind's file inside it, a self-diff included; hstat diff of two bundles
// prints each kind's -diff.
func TestHstatReadsTheBundle(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests compile binaries")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"serve", "hstat"} {
		bins[name] = filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", bins[name], "./cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
		}
	}
	trace := filepath.Join(dir, "trace.json")
	tf, err := os.Create(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.NewGenerator(workload.Chatbot, 7).Generate(40, 4).Encode(tf); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	bundle := filepath.Join(dir, "run")
	if out, err := exec.Command(bins["serve"], "-trace", trace, "-model", "opt-13b", "-seed", "7",
		"-out", bundle).CombinedOutput(); err != nil {
		t.Fatalf("serve -out: %v\n%s", err, out)
	}
	for _, file := range []string{"spans.json", "metrics.prom", "metrics.om", "decisions.json", "alerts.json", "perf.json"} {
		if st, err := os.Stat(filepath.Join(bundle, file)); err != nil || st.Size() == 0 {
			t.Errorf("bundle file %s: %v (empty or missing)", file, err)
		}
	}
	hstat := func(args ...string) string {
		t.Helper()
		var stderr bytes.Buffer
		cmd := exec.Command(bins["hstat"], args...)
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("hstat %v: %v\n%s", args, err, stderr.Bytes())
		}
		return string(out)
	}
	for kind, file := range map[string]string{
		"trace": "spans.json", "alerts": "alerts.json", "decisions": "decisions.json", "perf": "perf.json",
	} {
		path := filepath.Join(bundle, file)
		if got, want := hstat(kind, bundle), hstat(kind, path); got != want {
			t.Errorf("hstat %s on the bundle:\n%s\non %s:\n%s", kind, got, file, want)
		}
		if got, want := hstat(kind, "-diff", bundle, bundle), hstat(kind, "-diff", path, path); got != want {
			t.Errorf("hstat %s -diff on the bundle:\n%s\non %s:\n%s", kind, got, file, want)
		}
	}

	// hstat diff joins every kind both bundles hold: each section is what
	// hstat <kind> -diff prints for the pair, and a file only one bundle
	// holds gets one "missing in" line.
	other := filepath.Join(dir, "other")
	if out, err := exec.Command(bins["serve"], "-trace", trace, "-model", "opt-13b", "-seed", "8",
		"-system", "distserve", "-out", other).CombinedOutput(); err != nil {
		t.Fatalf("serve -out: %v\n%s", err, out)
	}
	part := filepath.Join(dir, "part")
	if err := os.Mkdir(part, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Link(filepath.Join(bundle, "spans.json"), filepath.Join(part, "spans.json")); err != nil {
		t.Fatal(err)
	}
	kinds := []string{"alerts", "decisions", "perf", "trace"}
	var want, wantPart string
	wantJSON := map[string]telemetry.Diff{}
	for _, kind := range kinds {
		want += "== " + kind + "\n" + hstat(kind, "-diff", bundle, other)
		var d telemetry.Diff
		if err := json.Unmarshal([]byte(hstat(kind, "-diff", "-json", bundle, other)), &d); err != nil {
			t.Fatalf("hstat %s -diff -json: %v", kind, err)
		}
		wantJSON[kind] = d
		if kind == "trace" {
			wantPart += "== trace\n" + hstat("trace", "-diff", part, bundle)
		} else {
			wantPart += "== " + kind + "\n" + kind + ".json missing in a\n"
		}
	}
	if got := hstat("diff", bundle, other); got != want {
		t.Errorf("hstat diff:\n%s\nwant the per-kind diffs:\n%s", got, want)
	}
	var gotJSON map[string]telemetry.Diff
	if err := json.Unmarshal([]byte(hstat("diff", "-json", bundle, other)), &gotJSON); err != nil {
		t.Fatalf("hstat diff -json: %v", err)
	}
	if !reflect.DeepEqual(gotJSON, wantJSON) {
		t.Errorf("hstat diff -json = %+v\nwant the per-kind diffs %+v", gotJSON, wantJSON)
	}
	if got := hstat("diff", part, bundle); got != wantPart {
		t.Errorf("hstat diff of a spans-only bundle:\n%s\nwant:\n%s", got, wantPart)
	}
}
