// Smoke tests: every command under cmd/ and every program under examples/
// must compile and run to completion with tiny parameters. These catch
// wiring regressions (flag parsing, topology construction, planner
// defaults) that package-level unit tests cannot see.
package heroserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/decisions"
	"heroserve/internal/telemetry/slo"
	"heroserve/internal/workload"
)

// binDir holds the programs this test binary builds.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "heroserve-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// builds holds one build per program, keyed by package directory.
var builds sync.Map

type build struct {
	once sync.Once
	path string
	err  error
}

// binary returns the program in package directory dir (cmd/serve,
// examples/chatbot), built once per test binary with buildTags. Tests run
// the binary itself: `go run` would rebuild it and turn its exit status 2
// into 1.
func binary(t *testing.T, dir string) string {
	t.Helper()
	v, _ := builds.LoadOrStore(dir, &build{})
	b := v.(*build)
	b.once.Do(func() {
		b.path = filepath.Join(binDir, filepath.Base(dir))
		if out, err := exec.Command("go", "build", "-tags", buildTags, "-o", b.path, "./"+dir).CombinedOutput(); err != nil {
			b.err = fmt.Errorf("go build -tags %q ./%s: %v\n%s", buildTags, dir, err, out)
			return
		}
		b.err = readSources(dir)
	})
	if b.err != nil {
		t.Fatal(b.err)
	}
	return b.path
}

// readSources lists the directory of every module package the program in
// dir is built from. The test cache records the files and directories a
// test opens, not what a `go build` subprocess reads, and this test binary
// does not link the commands' own packages: without the listing an edit
// to cmd/serve alone would leave `go test` reporting a cached pass.
func readSources(dir string) error {
	out, err := exec.Command("go", "list", "-tags", buildTags, "-deps",
		"-f", "{{if not .Standard}}{{.Dir}}{{end}}", "./"+dir).Output()
	if err != nil {
		return fmt.Errorf("go list -deps ./%s: %v", dir, err)
	}
	for _, d := range strings.Split(string(out), "\n") {
		if d == "" {
			continue
		}
		if _, err := os.ReadDir(d); err != nil {
			return err
		}
	}
	return nil
}

// run executes the program in dir with args and returns its combined output.
func run(t *testing.T, dir string, args ...string) string {
	t.Helper()
	out, err := exec.Command(binary(t, dir), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", dir, args, err, out)
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
		{name: "heroserve-help", dir: "cmd/heroserve", args: []string{"-h"}},
		{name: "serve-help", dir: "cmd/serve", args: []string{"-h"}},
		{name: "planner-help", dir: "cmd/planner", args: []string{"-h"}},
		{name: "tracegen-help", dir: "cmd/tracegen", args: []string{"-h"}},
		{name: "topoviz-help", dir: "cmd/topoviz", args: []string{"-h"}},
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
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
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
// one-line "<binary>: ..." error and exit status 2, never a panic.
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
	// Each document with trailing data: every reader must refuse it.
	trailing := func(src string) string {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "trailing-"+filepath.Base(src))
		if err := os.WriteFile(path, append(data, "garbage"...), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	trailingAlerts, trailingLedger := trailing(alertsLog), trailing(ledger)
	trailingSpans, trailingTrace := trailing(spans), trailing(trace)
	for _, c := range []struct {
		bin  string
		args []string
	}{
		{"tracegen", []string{"-bogus"}},
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
		{"hstat", []string{"alerts", trailingAlerts}},
		{"hstat", []string{"decisions", trailingLedger}},
		{"hstat", []string{"trace", trailingSpans}},
		{"hstat", []string{"trace", "-tsv", trailingSpans}},
		{"hstat", []string{"alerts", "-diff", "-rule", "nosuch", alertsLog, alertsLog}},
		{"hstat", []string{"alerts", "-state", "firing", "-diff", alertsLog, alertsLog}},
		{"hstat", []string{"alerts", "-state", "bogus", alertsLog}},
		{"hstat", []string{"alerts", "-diff", "-summary", alertsLog, alertsLog}},
		{"hstat", []string{"alerts", "-diff", "-tsv", alertsLog, alertsLog}},
		{"hstat", []string{"decisions", "-diff", "-tsv", ledger, ledger}},
		{"hstat", []string{"decisions", "-diff", "-regret", ledger, ledger}},
		{"hstat", []string{"trace", "-diff", "-top", "10", spans, spans}},
		{"hstat", []string{"trace", "-tsv", "-diff", spans, spans}},
		{"hstat", []string{"trace", "-top", "-1", spans}},
		{"hstat", []string{"diff", dir}},
		{"hstat", []string{"diff", "-tsv", dir, dir}},
		{"hstat", []string{"diff", truncated, dir}},
		{"serve", []string{"-bogus"}},
		{"serve", []string{"-trace", trace, "-servers", "x"}},
		{"serve", []string{"-trace", trace, "-topology", "bogus"}},
		{"serve", []string{"-trace", trace, "-model", "bogus"}},
		{"serve", []string{"-trace", trace, "-system", "bogus"}},
		{"serve", []string{"-trace", trace, "-system", "heroserve,distserve"}},
		{"serve", []string{"-trace", trace, "-system", "heroserve,bogus", "-daemon"}},
		{"serve", []string{"-trace", missing}},
		{"serve", []string{"-trace", truncated}},
		{"serve", []string{"-trace", trailingTrace}},
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
		{"serve", []string{"-trace", trace, "-pprof"}},
		{"heroserve", nil},
		{"heroserve", []string{"-bogus"}},
		{"heroserve", []string{"-exp", "fig1", "-listen", ":0"}},
		{"heroserve", []string{"-exp", "bogus"}},
		{"heroserve", []string{"-exp", "fig1", "-scale", "bogus"}},
		{"heroserve", []string{"-exp", "fig1", "-format", "bogus"}},
		{"heroserve", []string{"-exp", "fig1", "-out", trace}},
		{"planner", []string{"-bogus"}},
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
		{"topoviz", []string{"-bogus"}},
		{"topoviz", []string{"-topology", "bogus"}},
		{"topoviz", []string{"-topology", "pod8", "-servers", "0"}},
		{"topoviz", []string{"-topology", "pcie", "-servers", "-2"}},
	} {
		out, err := exec.Command(binary(t, "cmd/"+c.bin), c.args...).CombinedOutput()
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

// TestObserversDoNotPerturbTheRun: the run bundle only observes the run. One
// 80-request trace at 12 req/s replayed plain and with -out prints the same
// summary lines, byte for byte; an autoscaled -out replay of it leaves both
// decision-ledger kinds and a fired alert in its bundle.
func TestObserversDoNotPerturbTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests compile binaries")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	tf, err := os.Create(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.NewGenerator(workload.Chatbot, 7).Generate(80, 12).Encode(tf); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	// summary replays the trace with extra flags and returns the lines of
	// the run's summary that a plain run prints too.
	prefixes := []string{"system=", "served=", "TTFT:", "TPOT:", "comm:", "decode KV:"}
	summary := func(extra ...string) string {
		t.Helper()
		out := run(t, "cmd/serve", append([]string{"-trace", trace, "-system", "heroserve",
			"-topology", "testbed", "-model", "opt-13b", "-seed", "7"}, extra...)...)
		var lines []string
		for _, line := range strings.Split(out, "\n") {
			for _, p := range prefixes {
				if strings.HasPrefix(line, p) {
					lines = append(lines, line)
				}
			}
		}
		return strings.Join(lines, "\n")
	}
	plain := summary()
	if n := strings.Count(plain, "\n") + 1; n != len(prefixes) {
		t.Fatalf("plain run printed %d of the %d summary lines:\n%s", n, len(prefixes), plain)
	}
	if armed := summary("-out", filepath.Join(dir, "armed")); armed != plain {
		t.Errorf("-out changed the run:\n%s\nplain run:\n%s", armed, plain)
	}

	bundle := filepath.Join(dir, "autoscaled")
	summary("-autoscale", "-out", bundle)
	read := func(file string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(bundle, file))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	led, err := decisions.ReadJSON(bytes.NewReader(read(decisions.File)))
	if err != nil || led.NumCollective() == 0 || led.NumScale() == 0 {
		t.Errorf("autoscaled ledger: %v, want both kinds populated", err)
	}
	if log, err := slo.ReadLog(bytes.NewReader(read(slo.File))); err != nil || log.Summarize().Fired == 0 {
		t.Errorf("autoscaled alert log: %v, want a fired alert", err)
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
	bin := binary(t, "cmd/heroserve")
	// report runs one experiment; it only returns its error, since the armed
	// half runs on a goroutine of its own.
	report := func(exp string, extra ...string) ([]byte, error) {
		cmd := exec.Command(bin, append([]string{"-exp", exp, "-format", "json"}, extra...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("heroserve -exp %s %v: %v\n%s", exp, extra, err, stderr.Bytes())
		}
		return out, nil
	}
	for _, exp := range []string{"ablations", "fig7"} {
		bundle := filepath.Join(dir, exp)
		var armed []byte
		var armedErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			armed, armedErr = report(exp, "-out", bundle)
		}()
		plain, err := report(exp)
		<-done
		if err != nil {
			t.Fatal(err)
		}
		if armedErr != nil {
			t.Fatal(armedErr)
		}
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
	bins := map[string]string{"serve": binary(t, "cmd/serve"), "hstat": binary(t, "cmd/hstat")}
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
	entries, err := os.ReadDir(bundle)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
		if info, err := e.Info(); err != nil || info.Size() == 0 {
			t.Errorf("bundle file %s: %v (empty)", e.Name(), err)
		}
	}
	if want := []string{"alerts.json", "decisions.json", "metrics.prom", "perf.json", "spans.json"}; !reflect.DeepEqual(files, want) {
		t.Errorf("bundle holds %q, want exactly %q", files, want)
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
