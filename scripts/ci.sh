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

# Formatting gate: gofmt must have nothing to say about any Go file.
echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -l lists unformatted files:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go build"
go build ./...

# The experiment regression tests replay full rate sweeps across four
# simulated systems; uncached they exceed go test's default 10m per-binary
# timeout even with parallel subtests, hence the explicit -timeout.
echo "== go test -race"
go test -race -timeout 45m ./... "$@"

# The event engine (schedule, step, cancel, reschedule), netsim
# (reallocation by flow and path count, flow churn, pod-scale charge, many
# concurrent flows), planner (Alg. 1 on 24-, 96- and 192-server pods, the
# last enough for the pruned switch scan to matter), topology, collective (BenchmarkAllReduce:
# warm ring, ina-sync and ina-hetero cycles on one Comm), scheduler (table
# refresh, controller tick), online-policy, serving (a served run, an
# elephant relaunch), tracer, critical-path (partition, analyzer feed) and
# decision-ledger (one append, one render) layer benchmarks run once each,
# so they keep compiling and running.
echo "== layer benchmarks"
go test -run '^$' -bench . -benchtime 1x ./internal/sim ./internal/netsim ./internal/planner ./internal/topology ./internal/collective ./internal/scheduler ./internal/core ./internal/serving ./internal/telemetry ./internal/telemetry/critpath ./internal/telemetry/decisions

# Differential fuzzers: the fast water-filling allocator and its completion
# timer against the reference allocator, the critical-path partition on
# both its paths (the linear pass for ordered, disjoint all-reduces and the
# sweep line for everything else) against its O(n^2) reference, the
# hand-written span encoder against json.Marshal, and the span stream (events
# packed into chunks and encoded on the stream's own goroutine) against
# synchronous encoding, byte for byte and error for error. The trace parser, the SLO
# rules parser and the decision-ledger, perf report and alert log readers
# must never panic; the readers must round-trip every input they accept, and
# the ledger's hand renderer must write what encoding/json writes.
# The span-file reader (FromTrace) is a differential against the reference
# analyzer: every input it accepts must finalize bit for bit what the
# reference finalizes, and neither it nor its report may panic. Its
# minimization and the ledger reader's are capped so the 10 s runs spend
# their time fuzzing. The pruned aggregation-switch scan is a differential
# against the full scan: the same switch, its delay bit for bit, ties
# included. The engine's streamed posts (PostEach) are a differential
# against the Post loop they stand for, on both event queues: the same
# callbacks, clock and counters after every op and step. The fast event
# queue is a differential against the reference heap on the same programs
# (FuzzFronts), live and cancelled queue counts included. Both have their
# minimization capped too.
echo "== fuzz"
go test -run '^$' -fuzz '^FuzzReallocate$' -fuzztime 10s ./internal/netsim
go test -run '^$' -fuzz '^FuzzPartition$' -fuzztime 10s ./internal/telemetry/critpath
go test -run '^$' -fuzz '^FuzzAppendEvent$' -fuzztime 10s ./internal/telemetry
go test -run '^$' -fuzz '^FuzzTraceStream$' -fuzztime 10s ./internal/telemetry
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/workload
go test -run '^$' -fuzz '^FuzzReadJSON$' -fuzztime 10s -fuzzminimizetime 1s ./internal/telemetry/decisions
go test -run '^$' -fuzz '^FuzzReadReport$' -fuzztime 10s ./internal/telemetry/perf
go test -run '^$' -fuzz '^FuzzReadLog$' -fuzztime 10s ./internal/telemetry/slo
go test -run '^$' -fuzz '^FuzzParseRules$' -fuzztime 10s ./internal/telemetry/slo
go test -run '^$' -fuzz '^FuzzFromTrace$' -fuzztime 10s -fuzzminimizetime 1s ./internal/telemetry/critpath
go test -run '^$' -fuzz '^FuzzBestAggSwitch$' -fuzztime 10s ./internal/collective
go test -run '^$' -fuzz '^FuzzPostEach$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sim
go test -run '^$' -fuzz '^FuzzFronts$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sim

# The benchmark under bench/ is a module of its own, so the root go test
# does not enter it. Its tests cover the statistics, the input seeds, a
# 1/100-scale smoke run of every workload, and the consistency of
# BENCHMARK.json with the program.
echo "== bench module tests"
(cd bench && go test ./...)

# Telemetry artifact smoke: one small end-to-end serve run writes its run
# bundle, which feeds the telemetry, critical-path and perf smokes below. It
# must hold a non-empty, well-formed Chrome trace and both metrics
# expositions. Artifacts land in ARTIFACT_DIR (a temp dir by default) for CI
# upload.
echo "== telemetry smoke"
ART="${ARTIFACT_DIR:-$(mktemp -d)}"
mkdir -p "$ART"
go run ./cmd/tracegen -kind chatbot -n 40 -rate 4 -seed 7 > "$ART/trace.json"
go run ./cmd/serve -trace "$ART/trace.json" -system heroserve -topology testbed \
	-model opt-13b -out "$ART/run"
if command -v jq >/dev/null 2>&1; then
	jq -e '.traceEvents | length > 0' "$ART/run/spans.json" >/dev/null
else
	python3 -c "import json,sys; d=json.load(open(sys.argv[1])); assert d['traceEvents']" "$ART/run/spans.json"
fi
test -s "$ART/run/metrics.prom"
grep -q '^serving_requests_completed_total' "$ART/run/metrics.prom"
# heroserve takes the same artifact path: every serving run of an experiment
# (here the ablation variants) streams spans that hstat can decompose, and
# reaches the metrics export; the report alone goes to stdout.
go run ./cmd/heroserve -exp ablations -format json -out "$ART/hero" > "$ART/hero-ablations.json"
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); assert d['tables'][0]['rows']" "$ART/hero-ablations.json"
grep -q '^serving_requests_completed_total' "$ART/hero/metrics.prom"
go run ./cmd/hstat trace "$ART/hero" > "$ART/hero-critpath.txt"
grep -q 'critical-path breakdown' "$ART/hero-critpath.txt"
echo "telemetry artifacts: $ART"

# Critical-path smoke: the bundle's OpenMetrics exposition must carry
# exemplars and the EOF terminator; hstat must decompose the span export
# into a stage report.
echo "== critical-path smoke"
tail -1 "$ART/run/metrics.om" | grep -qx '# EOF'
grep -q 'trace_id=' "$ART/run/metrics.om"
grep -q '^ttft_critical_path_seconds_total{stage=' "$ART/run/metrics.om"
go run ./cmd/hstat trace "$ART/run" > "$ART/critpath.txt"
grep -q 'critical-path breakdown' "$ART/critpath.txt"

# Perf-observatory smoke: the bundle's self-profiling report must render in
# hstat, and the summary must name the headline rates. The report is
# nondeterministic wall-clock data, so only its presence and shape are
# asserted — never its values.
echo "== perf smoke"
test -s "$ART/run/perf.json"
go run ./cmd/hstat perf "$ART/run" > "$ART/perf.txt"
grep -q 'events/s' "$ART/perf.txt"
grep -q 'wall-seconds per sim-second' "$ART/perf.txt"
grep -q 'phase split of wall-clock' "$ART/perf.txt"

# Decision-ledger smoke: an autoscaled run must export a ledger whose
# counterfactual tables hstat can render, and the chosen scheme of a healthy
# run must carry zero execution regret (the table pick IS the argmin).
echo "== decision-ledger smoke"
go run ./cmd/serve -trace "$ART/trace.json" -system heroserve -topology testbed \
	-model opt-13b -autoscale -scale-policy hybrid-slo -out "$ART/autoscaled" > /dev/null
go run ./cmd/hstat decisions "$ART/autoscaled" > "$ART/decisions.txt"
grep -q 'decision ledger:' "$ART/decisions.txt"
grep -q 'counterfactual cost of always forcing a scheme' "$ART/decisions.txt"
grep -q 'shadow ranking' "$ART/decisions.txt"
grep -q '^execution regret 0s total' "$ART/decisions.txt"

# Bundle-diff smoke: hstat diff runs the one diff over every kind a bundle
# holds. A self-diff of the autoscaled bundle must show all four kinds, each
# with nothing changed, and no series or file on one side only.
echo "== bundle-diff smoke"
go run ./cmd/hstat diff "$ART/autoscaled" "$ART/autoscaled" > "$ART/bundle-diff.txt"
for kind in alerts decisions perf trace; do
	grep -qx "== $kind" "$ART/bundle-diff.txt"
done
test "$(grep -c ' 0 changed, [0-9]* equal, 0 only in a, 0 only in b$' "$ART/bundle-diff.txt")" -eq 4
if grep -q '^only in \|missing in ' "$ART/bundle-diff.txt"; then
	echo "bundle self-diff holds one-sided lines" >&2
	exit 1
fi

# SLO-alert smoke: an overdriven run must fire an alert that walks the full
# lifecycle (pending -> FIRING -> resolved) with a cause snapshot, and hstat
# must render the timeline and roll-up.
echo "== slo-alert smoke"
go run ./cmd/tracegen -kind chatbot -n 80 -rate 12 -seed 7 > "$ART/burst.json"
go run ./cmd/serve -trace "$ART/burst.json" -system heroserve -topology testbed \
	-model opt-13b -seed 7 -out "$ART/burst" > /dev/null
go run ./cmd/hstat alerts "$ART/burst" > "$ART/alerts.txt"
grep -q 'FIRING' "$ART/alerts.txt"
grep -q 'resolved' "$ART/alerts.txt"
grep -q 'dominant' "$ART/alerts.txt"
go run ./cmd/hstat alerts -summary "$ART/burst" > "$ART/alerts-summary.txt"
grep -q '1 fired / 1 resolved' "$ART/alerts-summary.txt"

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
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); assert any(r[t['columns'].index('policy')]=='adaptive' for t in d['tables'] if 'policy' in t['columns'] for r in t['rows'])" "$ART/ext-scale.json"

# Observers never steer: arming telemetry must not change a HeroServe pick,
# so Fig. 8's report (HeroServe's online policy on every pod-scale sweep
# point) is byte-identical with and without -out.
echo "== observers never steer"
go run ./cmd/heroserve -exp fig8 -format json > "$ART/fig8-plain.json"
go run ./cmd/heroserve -exp fig8 -format json -out "$ART/fig8-run" > "$ART/fig8-armed.json"
cmp "$ART/fig8-plain.json" "$ART/fig8-armed.json"

# Closed-loop smoke: the adaptive meta-policy under the default SLO rules
# must leave a ledger whose records name the active sub-law, and the alert
# burst run must show alert-driven control: some scale record carries live
# alerts in its signals, and some runtime switch was driven by an alert (the
# alert signal is consumed, not just recorded). Every switch must name its
# driving signal.
echo "== closed-loop smoke"
go run ./cmd/serve -trace "$ART/burst.json" -system heroserve -topology testbed \
	-model opt-13b -seed 7 -autoscale -scale-policy adaptive -out "$ART/adaptive" > /dev/null
go run ./cmd/hstat decisions "$ART/adaptive" > "$ART/adaptive.txt"
grep -q 'decision ledger:' "$ART/adaptive.txt"
python3 - "$ART/adaptive/decisions.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
scale = d.get("scale") or []
assert scale, "adaptive run produced no scale records"
assert all(r.get("law") for r in scale), "meta-policy record without an active law"
switches = [r for r in scale if r.get("switch")]
for r in switches:
    assert r.get("switch_signal") in ("alert", "stage-share", "regret"), r
assert any(r["signals"].get("active_alerts") for r in scale), "no scale record saw a live alert"
assert any(r["switch_signal"] == "alert" for r in switches), "no switch was driven by an alert"
PY

# Golden-metrics gate: the pinned seed matrix must reproduce the checked-in
# expositions byte for byte. On drift the per-case diffs land in the
# artifact dir for upload.
echo "== golden metrics"
GOLDEN_DIFF_DIR="$ART/golden-diff" scripts/golden.sh check

# Fast-vs-reference equivalence gate: the same matrix run by a serve built
# with -tags refpaths, which selects the reference simulator paths, must hit
# the SAME goldens. A failure here means the incremental water-filling or the
# lazy-cancellation event queue diverged behaviourally from its reference
# implementation.
echo "== golden metrics (reference simulator paths)"
GOLDEN_DIFF_DIR="$ART/golden-ref-diff" scripts/golden.sh refcheck

# The serving-level tests on the reference paths. The experiment sweeps stay
# out: under the tag they take minutes.
echo "== go test -tags refpaths"
go vet -tags refpaths ./internal/serving
go test -tags refpaths ./internal/core ./internal/serving ./internal/baselines

echo "CI OK"
