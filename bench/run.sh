#!/usr/bin/env bash
# Builds the benchmark (bench/, a Go module of its own that compiles the
# simulator from the surrounding repository) into .bench_build/ at the
# repository root and runs it with the given arguments:
#
#   bash bench/run.sh --workload chat-stress --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -reps 5 -out set.json
#
# The Go build cache and every file the benchmark writes stay under
# .bench_build/. Without the repository around bench/ the build fails and
# the script exits non-zero before printing anything.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's own usage counters in there too.
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-buildvcs=false CGO_ENABLED=0
(cd "$root/bench" && go build -o "$out/heroserve-bench" .)
cd "$root"
exec "$out/heroserve-bench" -workdir "$out" "$@"
