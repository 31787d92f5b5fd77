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

// TestTracegenRejectsBadFlags: an out-of-range -n or -rate must give a
// one-line error and exit status 2, never a panic. The binary is built once
// and run directly, because `go run` replaces the program's exit status
// with its own.
func TestTracegenRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests compile binaries")
	}
	bin := filepath.Join(t.TempDir(), "tracegen")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/tracegen").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/tracegen: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-n", "0"},
		{"-n", "-3"},
		{"-rate", "0"},
		{"-rate", "-1"},
		{"-rate", "NaN"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("tracegen %v: err %v, want exit status 2\n%s", args, err, out)
		}
		if strings.Contains(string(out), "goroutine") {
			t.Errorf("tracegen %v panicked:\n%s", args, out)
		}
		if lines := strings.Count(strings.TrimSpace(string(out)), "\n") + 1; lines != 1 ||
			!strings.HasPrefix(string(out), "tracegen: ") {
			t.Errorf("tracegen %v: want a one-line \"tracegen: ...\" error, got:\n%s", args, out)
		}
	}
}
