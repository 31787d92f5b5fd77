#!/usr/bin/env bash
# CI entry point: vet, build, then the full test suite under the race
# detector. Run from anywhere; the script cds to the repo root.
#
#   scripts/ci.sh          # full suite (race detector, ~20-30 min cold)
#   scripts/ci.sh -short   # quick pass: skips the heavy experiment sweeps
#
# Extra arguments are forwarded to `go test`.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

# The experiment regression tests replay full rate sweeps across four
# simulated systems; uncached they exceed go test's default 10m per-binary
# timeout even with parallel subtests, hence the explicit -timeout.
echo "== go test -race"
go test -race -timeout 45m ./... "$@"

# The planner, topology, collective, online-policy and tracer layer
# benchmarks run once each, so they keep compiling and running.
echo "== layer benchmarks"
go test -run '^$' -bench . -benchtime 1x ./internal/planner ./internal/topology ./internal/collective ./internal/core ./internal/telemetry

# Differential fuzzers: the fast water-filling allocator and its completion
# timer against the reference allocator, the sweep-line critical-path
# partition against its O(n^2) reference, and the hand-written span encoder
# against json.Marshal. The trace parser, the SLO rules parser and the
# decision-ledger, perf report and alert log readers must never panic; the
# readers must round-trip every input they accept. The span-file reader
# (FromTrace) must never panic, nor its report on any input it accepts; its
# minimization is capped so the 10 s run spends its time fuzzing.
echo "== fuzz"
go test -run '^$' -fuzz '^FuzzReallocate$' -fuzztime 10s ./internal/netsim
go test -run '^$' -fuzz '^FuzzPartition$' -fuzztime 10s ./internal/telemetry/critpath
go test -run '^$' -fuzz '^FuzzAppendEvent$' -fuzztime 10s ./internal/telemetry
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/workload
go test -run '^$' -fuzz '^FuzzReadJSON$' -fuzztime 10s ./internal/telemetry/decisions
go test -run '^$' -fuzz '^FuzzReadReport$' -fuzztime 10s ./internal/telemetry/perf
go test -run '^$' -fuzz '^FuzzReadLog$' -fuzztime 10s ./internal/telemetry/slo
go test -run '^$' -fuzz '^FuzzParseRules$' -fuzztime 10s ./internal/telemetry/slo
go test -run '^$' -fuzz '^FuzzFromTrace$' -fuzztime 10s -fuzzminimizetime 1s ./internal/telemetry/critpath

# The benchmark under bench/ is a module of its own, so the root go test
# does not enter it. Its tests cover the statistics, the input seeds, a
# 1/100-scale smoke run of every workload, and the consistency of
# BENCHMARK.json with the program.
echo "== bench module tests"
(cd bench && go test ./...)

# Telemetry artifact smoke: a small end-to-end serve run must export a
# non-empty, well-formed Chrome trace and Prometheus metrics. Artifacts
# land in ARTIFACT_DIR (a temp dir by default) for CI upload.
echo "== telemetry smoke"
ART="${ARTIFACT_DIR:-$(mktemp -d)}"
mkdir -p "$ART"
go run ./cmd/tracegen -kind chatbot -n 40 -rate 4 -seed 7 > "$ART/trace.json"
go run ./cmd/serve -trace "$ART/trace.json" -system heroserve -topology testbed \
	-model opt-13b -trace-out "$ART/spans.json" -metrics-out "$ART/metrics.prom"
if command -v jq >/dev/null 2>&1; then
	jq -e '.traceEvents | length > 0' "$ART/spans.json" >/dev/null
else
	python3 -c "import json,sys; d=json.load(open(sys.argv[1])); assert d['traceEvents']" "$ART/spans.json"
fi
test -s "$ART/metrics.prom"
grep -q '^serving_requests_completed_total' "$ART/metrics.prom"
# The self-profiler is a pure observer: the same run with -perf-out armed
# must stream the same span bytes.
go run ./cmd/serve -trace "$ART/trace.json" -system heroserve -topology testbed \
	-model opt-13b -trace-out "$ART/spans-perf.json" -perf-out "$ART/spans-perf.perf.json" > /dev/null
cmp "$ART/spans.json" "$ART/spans-perf.json"
# heroserve takes the same artifact path: every serving run of an experiment
# (here the ablation variants) streams spans that hstat can decompose, and
# reaches the metrics export; the report alone goes to stdout.
go run ./cmd/heroserve -exp ablations -format json -trace-out "$ART/hero-spans.json" \
	-metrics-out "$ART/hero-metrics.prom" > "$ART/hero-ablations.json"
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); assert d['tables'][0]['rows']" "$ART/hero-ablations.json"
grep -q '^serving_requests_completed_total' "$ART/hero-metrics.prom"
go run ./cmd/hstat trace "$ART/hero-spans.json" > "$ART/hero-critpath.txt"
grep -q 'critical-path breakdown' "$ART/hero-critpath.txt"
echo "telemetry artifacts: $ART"

# Critical-path smoke: the same run re-exported as OpenMetrics must carry
# exemplars and the EOF terminator; hstat must decompose the span export
# into a stage report, and a self-diff must be zero.
echo "== critical-path smoke"
go run ./cmd/serve -trace "$ART/trace.json" -system heroserve -topology testbed \
	-model opt-13b -metrics-format openmetrics -metrics-out "$ART/metrics.om" > /dev/null
tail -1 "$ART/metrics.om" | grep -qx '# EOF'
grep -q 'trace_id=' "$ART/metrics.om"
grep -q '^ttft_critical_path_seconds_total{stage=' "$ART/metrics.om"
go run ./cmd/hstat trace "$ART/spans.json" > "$ART/critpath.txt"
grep -q 'critical-path breakdown' "$ART/critpath.txt"
go run ./cmd/hstat trace -diff "$ART/spans.json" "$ART/spans.json" | grep -q 'delta +0.000000s'

# Decision-ledger smoke: an autoscaled run must export a ledger whose
# counterfactual tables hstat can render; a self-diff must be zero
# deltas, and the chosen scheme of a healthy run must carry zero execution
# regret (the table pick IS the argmin).
echo "== decision-ledger smoke"
go run ./cmd/serve -trace "$ART/trace.json" -system heroserve -topology testbed \
	-model opt-13b -autoscale -scale-policy hybrid-slo \
	-decisions-out "$ART/decisions.json" > /dev/null
go run ./cmd/hstat decisions "$ART/decisions.json" > "$ART/decisions.txt"
grep -q 'decision ledger:' "$ART/decisions.txt"
grep -q 'counterfactual cost of always forcing a scheme' "$ART/decisions.txt"
grep -q 'shadow ranking' "$ART/decisions.txt"
grep -q '^execution regret 0s total' "$ART/decisions.txt"
go run ./cmd/hstat decisions -diff "$ART/decisions.json" "$ART/decisions.json" | grep -q 'collective .* (+0)'

# SLO-alert smoke: an overdriven run must fire an alert that walks the full
# lifecycle (pending -> FIRING -> resolved) with a cause snapshot, hstat
# must render the timeline and roll-up, and a self-diff must be zero deltas.
echo "== slo-alert smoke"
go run ./cmd/tracegen -kind chatbot -n 80 -rate 12 -seed 7 > "$ART/burst.json"
go run ./cmd/serve -trace "$ART/burst.json" -system heroserve -topology testbed \
	-model opt-13b -seed 7 -alerts-out "$ART/alerts.json" > /dev/null
go run ./cmd/hstat alerts "$ART/alerts.json" > "$ART/alerts.txt"
grep -q 'FIRING' "$ART/alerts.txt"
grep -q 'resolved' "$ART/alerts.txt"
grep -q 'dominant' "$ART/alerts.txt"
go run ./cmd/hstat alerts -summary "$ART/alerts.json" | grep -q '1 fired / 1 resolved'
go run ./cmd/hstat alerts -diff "$ART/alerts.json" "$ART/alerts.json" | grep -q 'fired 1 -> 1 (+0)'

# Scaling-study smoke: the ext-scale scoreboard must run end to end in both
# machine formats. The CSV must carry the static reference plus every policy;
# the JSON must parse. (Registry-vs-Results agreement is asserted inside the
# experiment itself.)
echo "== ext-scale smoke"
go run ./cmd/heroserve -exp ext-scale -format csv -seed 1 > "$ART/ext-scale.csv"
for policy in static-full backlog occupancy kv-headroom hybrid-slo alert-aware adaptive; do
	grep -q ",$policy," "$ART/ext-scale.csv"
done
go run ./cmd/heroserve -exp ext-scale -format json -seed 1 > "$ART/ext-scale.json"
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); assert d['tables'][0]['rows']" "$ART/ext-scale.json"
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); assert any(r.get('policy')=='adaptive' for t in d['tables'] for r in t['rows'])" "$ART/ext-scale.json"

# Closed-loop smoke: the adaptive meta-policy under the default SLO rules
# must leave a ledger whose records name the active sub-law, and the alert
# burst run must show alert-driven control (the ActiveAlerts signal is
# consumed, not just recorded). Runtime switches, when present, must name
# their driving signal in the hstat decisions roll-up.
echo "== closed-loop smoke"
go run ./cmd/serve -trace "$ART/burst.json" -system heroserve -topology testbed \
	-model opt-13b -seed 7 -autoscale -scale-policy adaptive \
	-decisions-out "$ART/adaptive.json" -alerts-out "$ART/adaptive-alerts.json" > /dev/null
go run ./cmd/hstat decisions "$ART/adaptive.json" > "$ART/adaptive.txt"
grep -q 'decision ledger:' "$ART/adaptive.txt"
python3 - "$ART/adaptive.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
scale = d.get("scale") or []
assert scale, "adaptive run produced no scale records"
assert all(r.get("law") for r in scale), "meta-policy record without an active law"
for r in scale:
    if r.get("switch"):
        assert r.get("switch_signal") in ("alert", "stage-share", "regret"), r
PY

# Perf-observatory smoke: a run with the self-profiler armed must export a
# report that hstat can render, and the summary must name the headline
# rates. The report is nondeterministic wall-clock data, so only its
# presence and shape are asserted — never its values.
echo "== perf smoke"
go run ./cmd/serve -trace "$ART/trace.json" -system heroserve -topology testbed \
	-model opt-13b -seed 7 -perf-out "$ART/perf.json" > /dev/null
test -s "$ART/perf.json"
go run ./cmd/hstat perf "$ART/perf.json" > "$ART/perf.txt"
grep -q 'events/s' "$ART/perf.txt"
grep -q 'wall-seconds per sim-second' "$ART/perf.txt"
grep -q 'phase split of wall-clock' "$ART/perf.txt"
go run ./cmd/hstat perf -diff "$ART/perf.json" "$ART/perf.json" | grep -q 'events/s'

# Golden-metrics gate: the pinned seed matrix must reproduce the checked-in
# expositions byte for byte. On drift the per-case diffs land in the
# artifact dir for upload.
echo "== golden metrics"
GOLDEN_DIFF_DIR="$ART/golden-diff" scripts/golden.sh check

# Fast-vs-reference equivalence gate: the same matrix run by a serve built
# with -tags refpaths, which selects the reference simulator paths, must hit
# the SAME goldens. A failure here means the incremental water-filling or the
# timer-wheel event queue diverged behaviourally from its reference
# implementation.
echo "== golden metrics (reference simulator paths)"
GOLDEN_DIFF_DIR="$ART/golden-ref-diff" scripts/golden.sh refcheck

# The serving-level tests on the reference paths. The experiment sweeps stay
# out: under the tag they take minutes.
echo "== go test -tags refpaths"
go vet -tags refpaths ./internal/serving
go test -tags refpaths ./internal/core ./internal/serving ./internal/baselines

echo "CI OK"
