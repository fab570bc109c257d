#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Run it
# from the repository root:
#
#   bash bench/run.sh -workload stream-batch -seed 1 -seconds 20 -trace 0
#
# The bench binary, the Go build cache, the go command's own state
# (GOPATH, telemetry) and every file a run writes stay under
# .bench_build/ at the root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" "$@"
