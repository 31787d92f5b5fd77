// Smoke tests: every command under cmd/ and every program under examples/
// must compile and run to completion with tiny parameters. These catch
// wiring regressions (flag parsing, topology construction, planner
// defaults) that package-level unit tests cannot see.
package heroserve

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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
		{"hstat", []string{"perf", truncated}},
		{"serve", []string{"-trace", trace, "-topology", "bogus"}},
		{"serve", []string{"-trace", trace, "-model", "bogus"}},
		{"serve", []string{"-trace", trace, "-system", "bogus"}},
		{"serve", []string{"-trace", missing}},
		{"serve", []string{"-trace", truncated}},
		{"serve", []string{"-trace", trace, "-topology", "pod8", "-servers", "0"}},
		{"serve", []string{"-trace", trace, "-batch", "0"}},
		{"heroserve", nil},
		{"heroserve", []string{"-exp", "bogus"}},
		{"heroserve", []string{"-exp", "fig1", "-scale", "bogus"}},
		{"heroserve", []string{"-exp", "fig1", "-format", "bogus"}},
		{"planner", []string{"-topology", "bogus"}},
		{"planner", []string{"-model", "bogus"}},
		{"planner", []string{"-workload", "bogus"}},
		{"planner", []string{"-topology", "pod2", "-servers", "0"}},
		{"planner", []string{"-rate", "0"}},
		{"planner", []string{"-batch", "-1"}},
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
