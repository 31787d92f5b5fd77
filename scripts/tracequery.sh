#!/usr/bin/env bash
# Canned jq queries over a Chrome trace-event export (spans.json in a
# cmd/serve or cmd/heroserve -out bundle, or `curl .../trace` from a daemon).
#
#   scripts/tracequery.sh queue     spans.json   # p50/p99 queue-span duration by process (system/policy)
#   scripts/tracequery.sh allreduce spans.json   # all-reduce count/mean/p99 by scheme
#   scripts/tracequery.sh stages    spans.json   # pipeline_stage hand-off count/mean/p99 by stage
#
# Durations are reported in milliseconds (trace timestamps are microseconds
# of sim-time). Async (b/e) spans are paired by [pid, cat, id, name].
set -euo pipefail

if ! command -v jq > /dev/null; then
	echo "tracequery: jq not found on PATH" >&2
	exit 2
fi
cmd="${1:-}"
file="${2:-}"
if [[ -z "$cmd" || -z "$file" ]]; then
	echo "usage: scripts/tracequery.sh queue|allreduce|stages <trace.json>" >&2
	exit 2
fi

# pct(p) over a sorted array; pnames maps pid -> process_name metadata.
JQ_LIB='
def pct(p): sort | if length == 0 then null else .[((length - 1) * p | floor)] end;
def pnames: [.traceEvents[] | select(.ph == "M" and .name == "process_name")]
	| map({key: (.pid | tostring), value: .args.name}) | from_entries;
'

case "$cmd" in
queue)
	# Complete (X) spans named "queue" live on each request track; group by
	# owning process so systems/policies in one trace are compared side by side.
	jq -r "$JQ_LIB"'
		pnames as $names
		| [.traceEvents[] | select(.ph == "X" and .name == "queue")]
		| group_by(.pid)
		| map({
			process: ($names[.[0].pid | tostring] // (.[0].pid | tostring)),
			n: length,
			p50_ms: (map(.dur / 1000) | pct(0.5)),
			p99_ms: (map(.dur / 1000) | pct(0.99)),
		})
		| (["PROCESS", "N", "P50_MS", "P99_MS"],
		   (.[] | [.process, .n, (.p50_ms * 1000 | round / 1000), (.p99_ms * 1000 | round / 1000)]))
		| @tsv' "$file"
	;;
allreduce)
	# Async all-reduce spans: pair b/e on [pid, cat, id, name]; scheme comes
	# from the begin event args.
	jq -r "$JQ_LIB"'
		[.traceEvents[] | select(.name == "allreduce" and (.ph == "b" or .ph == "e"))]
		| group_by([.pid, .cat, .id, .name])
		| map(select(length == 2) | sort_by(.ts)
			| {scheme: (.[0].args.scheme // "unknown"), dur_ms: ((.[1].ts - .[0].ts) / 1000)})
		| group_by(.scheme)
		| map({
			scheme: .[0].scheme,
			n: length,
			mean_ms: ((map(.dur_ms) | add) / length),
			p99_ms: (map(.dur_ms) | pct(0.99)),
		})
		| (["SCHEME", "N", "MEAN_MS", "P99_MS"],
		   (.[] | [.scheme, .n, (.mean_ms * 1000 | round / 1000), (.p99_ms * 1000 | round / 1000)]))
		| @tsv' "$file"
	;;
stages)
	# pipeline_stage async spans: the stage arg is the 1-based destination
	# stage of the activation hand-off.
	jq -r "$JQ_LIB"'
		[.traceEvents[] | select(.name == "pipeline_stage" and (.ph == "b" or .ph == "e"))]
		| group_by([.pid, .cat, .id, .name])
		| map(select(length == 2) | sort_by(.ts)
			| {stage: (.[0].args.stage // "?"), dur_ms: ((.[1].ts - .[0].ts) / 1000)})
		| group_by(.stage)
		| map({
			stage: .[0].stage,
			n: length,
			mean_ms: ((map(.dur_ms) | add) / length),
			p99_ms: (map(.dur_ms) | pct(0.99)),
		})
		| (["STAGE", "N", "MEAN_MS", "P99_MS"],
		   (.[] | [.stage, .n, (.mean_ms * 1000 | round / 1000), (.p99_ms * 1000 | round / 1000)]))
		| @tsv' "$file"
	;;
*)
	echo "tracequery: unknown query '$cmd' (want queue|allreduce|stages)" >&2
	exit 2
	;;
esac
