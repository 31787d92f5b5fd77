#!/usr/bin/env bash
# Golden-metrics regression gate.
#
# Same-seed runs export byte-identical Prometheus metrics, so CI can diff the
# exposition against checked-in goldens and fail on ANY behavioural drift —
# scheme-pick counts, link busy-seconds, TTFT histogram buckets — a far
# sharper signal than test pass/fail.
#
#   scripts/golden.sh check    # run the pinned matrix, diff against goldens
#   scripts/golden.sh refcheck # same matrix with serve built -tags refpaths,
#                              # which runs the reference simulator paths;
#                              # must match the SAME goldens — proving the
#                              # fast incremental water-filling and timer-wheel
#                              # event queue are behaviourally identical
#   scripts/golden.sh regen    # refresh testdata/golden/ after an
#                              # INTENTIONAL behaviour change (review the diff!)
#
# Normalization: metrics.prom lines are sorted (LC_ALL=C) so the comparison
# is insensitive to family ordering; values are already timestamp-free
# (sim-time only). On check failure the per-case diffs are also written to
# $GOLDEN_DIFF_DIR (if set) for CI artifact upload.
#
# Each case also pins a trace-derived aggregate ($name.trace.tsv): the
# queue/allreduce/stages TSV tables from scripts/tracequery.sh over the run's
# span export. That catches drift the metrics exposition can't see — e.g. a
# span that stops being emitted, or an allreduce silently switching scheme.
# Requires jq; skipped with a warning when jq is missing.
#
# Each case further pins the decision-ledger summary ($name.decisions.tsv,
# rendered by hstat decisions -tsv from the run bundle's decisions.json): the
# per-scheme counterfactual regret totals and the scale laws' shadow verdict
# matrix. Under refcheck the reference simulator paths must reproduce the
# SAME decision ledgers — counterfactual costs included — bit for bit.
#
# Each case finally pins the SLO alert log ($name.alerts.tsv, rendered by
# hstat alerts -tsv from the run bundle's alerts.json): every alert's lifecycle
# stamps and the per-rule roll-up. Refcheck identity applies here too — the
# reference paths must fire and resolve the SAME alerts at the SAME sim-times.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN_DIR=testdata/golden
OUT_DIR="${GOLDEN_OUT_DIR:-$(mktemp -d)}"
mode="${1:-}"
if [[ "$mode" != "check" && "$mode" != "refcheck" && "$mode" != "regen" ]]; then
	echo "usage: scripts/golden.sh check|refcheck|regen" >&2
	exit 2
fi

# refcheck pins the reference simulator implementations to the same goldens
# the fast paths produce: any divergence between the two is a gate failure.
# Only a serve built with the refpaths tag can run the reference paths.
TAGS=""
if [[ "$mode" == "refcheck" ]]; then
	TAGS="refpaths"
fi

BIN="$OUT_DIR/bin"
mkdir -p "$BIN"
go build -o "$BIN/tracegen" ./cmd/tracegen
go build -tags "$TAGS" -o "$BIN/serve" ./cmd/serve
go build -o "$BIN/hstat" ./cmd/hstat

HAVE_JQ=1
if ! command -v jq > /dev/null; then
	HAVE_JQ=0
	echo "golden: WARNING jq not found; trace-aggregate goldens skipped" >&2
fi

# The pinned matrix: name | tracegen args | serve args. Kept CI-cheap
# (testbed, opt-13b, plus one short pod-scale run) while covering all four
# systems, every all-reduce scheme, two workload kinds, and background
# elephant traffic (TestGoldenMatrixCoverage holds the matrix to that).
cases() {
	echo 'heroserve-testbed-chatbot|-kind chatbot -n 40 -rate 4 -seed 7|-system heroserve -topology testbed -model opt-13b -seed 7'
	echo 'distserve-testbed-chatbot|-kind chatbot -n 40 -rate 4 -seed 7|-system distserve -topology testbed -model opt-13b -seed 7'
	# Summarization needs the paper's long-context settings (TTFT 25 s,
	# batch Q=1) to be plannable on the testbed.
	echo 'ds-switchml-testbed-summarization|-kind summarization -n 16 -rate 0.2 -seed 11|-system ds-switchml -topology testbed -model opt-13b -seed 11 -elephants 2 -ttft 25 -tpot 0.2 -batch 1'
	# Autoscaled run: pins the scale-policy decision stream, the
	# decode_active_instances trajectory, and the incremental
	# decode_gpu_seconds_total ledger.
	echo 'heroserve-testbed-chatbot-autoscaled|-kind chatbot -n 40 -rate 4 -seed 7|-system heroserve -topology testbed -model opt-13b -seed 7 -autoscale -scale-policy hybrid-slo'
	# Pod-scale run: pins the 896 link_busy_seconds series of the 8-track pod
	# and the online policy's collective decisions across its 18 switches —
	# the surfaces the pod-scale hot loops (busy-link charging, detour
	# ranking, decision audit) feed.
	echo 'heroserve-pod8-summarization|-kind summarization -n 12 -rate 0.5 -seed 11|-system heroserve -topology pod8 -servers 24 -model opt-66b -seed 11 -elephants 4 -ttft 25 -tpot 0.2 -batch 1'
	# Cross-server runs: a decode tensor-parallel floor of 8 spans two
	# testbed servers, so each system runs its native INA scheme (testbed
	# OPT-13B groups otherwise fit on one server and stay on the ring).
	echo 'heroserve-testbed-chatbot-xserver|-kind chatbot -n 40 -rate 4 -seed 7|-system heroserve -topology testbed -model opt-13b -seed 7 -min-tens-decode 8'
	echo 'ds-atp-testbed-chatbot-xserver|-kind chatbot -n 40 -rate 4 -seed 7|-system ds-atp -topology testbed -model opt-13b -seed 7 -min-tens-decode 8'
	echo 'ds-switchml-testbed-chatbot-xserver|-kind chatbot -n 40 -rate 4 -seed 7|-system ds-switchml -topology testbed -model opt-13b -seed 7 -min-tens-decode 8'
}

# produce NAME TRACEGEN_ARGS SERVE_ARGS: run the case into the bundle
# $OUT_DIR/NAME/, normalize its exposition into $OUT_DIR/NAME.prom and the
# trace aggregates into $OUT_DIR/NAME.trace.tsv (when jq is available).
produce() {
	local name=$1 tg=$2 sv=$3 bundle="$OUT_DIR/$1"
	# shellcheck disable=SC2086 # word-splitting of the arg strings is intended
	"$BIN/tracegen" $tg > "$OUT_DIR/$name.trace.json"
	# shellcheck disable=SC2086
	# -out arms the performance observatory on every golden run: the report
	# itself is nondeterministic wall-clock data (never compared), but
	# producing the goldens WITH sampling enabled is the standing proof that
	# the sampler perturbs no golden surface.
	"$BIN/serve" -trace "$OUT_DIR/$name.trace.json" $sv -out "$bundle" > /dev/null
	if [[ ! -s "$bundle/perf.json" ]]; then
		echo "golden: FAIL $name produced no perf report" >&2
		exit 1
	fi
	LC_ALL=C sort "$bundle/metrics.prom" > "$OUT_DIR/$name.prom"
	"$BIN/hstat" decisions -tsv "$bundle" > "$OUT_DIR/$name.decisions.tsv"
	"$BIN/hstat" alerts -tsv "$bundle" > "$OUT_DIR/$name.alerts.tsv"
	if [[ $HAVE_JQ -eq 1 ]]; then
		{
			for q in queue allreduce stages; do
				echo "## $q"
				scripts/tracequery.sh "$q" "$bundle/spans.json"
			done
		} > "$OUT_DIR/$name.trace.tsv"
	fi
}

# compare NAME EXT: diff $OUT_DIR/NAME.EXT against the golden; returns 1 and
# reports on drift or a missing golden.
compare() {
	local name=$1 ext=$2
	if [[ ! -f "$GOLDEN_DIR/$name.$ext" ]]; then
		echo "golden: MISSING $GOLDEN_DIR/$name.$ext (run scripts/golden.sh regen)" >&2
		return 1
	fi
	if ! diff -u "$GOLDEN_DIR/$name.$ext" "$OUT_DIR/$name.$ext" > "$OUT_DIR/$name.$ext.diff"; then
		echo "golden: DRIFT in $name ($ext):" >&2
		cat "$OUT_DIR/$name.$ext.diff" >&2
		if [[ -n "${GOLDEN_DIFF_DIR:-}" ]]; then
			mkdir -p "$GOLDEN_DIFF_DIR"
			cp "$OUT_DIR/$name.$ext.diff" "$GOLDEN_DIFF_DIR/$name.$ext.diff"
		fi
		return 1
	fi
	echo "golden: ok $name ($ext)"
}

status=0
while IFS='|' read -r name tg sv; do
	produce "$name" "$tg" "$sv"
	if [[ "$mode" == "regen" ]]; then
		mkdir -p "$GOLDEN_DIR"
		cp "$OUT_DIR/$name.prom" "$GOLDEN_DIR/$name.prom"
		echo "golden: wrote $GOLDEN_DIR/$name.prom"
		cp "$OUT_DIR/$name.decisions.tsv" "$GOLDEN_DIR/$name.decisions.tsv"
		echo "golden: wrote $GOLDEN_DIR/$name.decisions.tsv"
		cp "$OUT_DIR/$name.alerts.tsv" "$GOLDEN_DIR/$name.alerts.tsv"
		echo "golden: wrote $GOLDEN_DIR/$name.alerts.tsv"
		if [[ $HAVE_JQ -eq 1 ]]; then
			cp "$OUT_DIR/$name.trace.tsv" "$GOLDEN_DIR/$name.trace.tsv"
			echo "golden: wrote $GOLDEN_DIR/$name.trace.tsv"
		fi
		continue
	fi
	compare "$name" prom || status=1
	compare "$name" decisions.tsv || status=1
	compare "$name" alerts.tsv || status=1
	if [[ $HAVE_JQ -eq 1 ]]; then
		compare "$name" trace.tsv || status=1
	fi
done < <(cases)

if [[ "$mode" == "refcheck" && $status -ne 0 ]]; then
	echo "golden: REFERENCE paths diverged from the committed goldens — the fast" >&2
	echo "golden: and reference simulator implementations no longer agree." >&2
elif [[ "$mode" != "regen" && $status -ne 0 ]]; then
	echo "golden: metrics drifted from testdata/golden/." >&2
	echo "golden: if the change is intentional, run scripts/golden.sh regen and commit the result." >&2
fi
exit $status
