#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh -workload hothome -seed 1 -seconds 25 -trace 0
#
# The Go build cache and every binary the benchmark builds stay under
# .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail
if [[ ! -f go.mod || ! -f bench/go.mod || ! -d cmd/allarm-serve || ! -d cmd/allarm-router ]]; then
	echo "bench/run.sh: run from the root of an allarm checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go build -C bench -o "$out/allarm-bench" .
exec "$out/allarm-bench" "$@"
