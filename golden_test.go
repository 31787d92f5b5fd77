package heroserve

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"heroserve/internal/core"
)

// TestGoldenMatrixCoverage keeps the golden gate pinning every system and
// every all-reduce scheme: each row of the systems table is a -system of
// some case in scripts/golden.sh, and each collective_ops_total{scheme}
// series is nonzero in at least one committed golden exposition. It reads
// only committed files.
func TestGoldenMatrixCoverage(t *testing.T) {
	script, err := os.ReadFile(filepath.Join("scripts", "golden.sh"))
	if err != nil {
		t.Fatal(err)
	}
	body := string(script)
	start := strings.Index(body, "\ncases() {\n")
	if start < 0 {
		t.Fatal("scripts/golden.sh has no cases() function")
	}
	body = body[start:]
	body = body[:strings.Index(body, "\n}\n")]
	cased := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s*echo '[^|]*\|[^|]*\|.*-system (\S+)`).FindAllStringSubmatch(body, -1) {
		cased[m[1]] = true
	}
	for _, s := range core.Systems {
		if !cased[s.Name] {
			t.Errorf("no golden case runs -system %s", s.Name)
		}
	}

	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.prom"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden expositions (%v)", err)
	}
	series := regexp.MustCompile(`(?m)^collective_ops_total\{scheme="([^"]+)"\} (\S+)$`)
	ops := map[string]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range series.FindAllStringSubmatch(string(b), -1) {
			v, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
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
