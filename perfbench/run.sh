#!/usr/bin/env bash
# Builds the benchmark and the antserve binary under test from this checkout,
# then runs the benchmark. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload megacell --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays under .bench_build in the checkout: the Go build
# cache, the binaries and the workloads' scratch files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the root of an antsearch checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off
export GOPATH="$out/gopath"

go build -o "$out/antserve" ./cmd/antserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --antserve "$out/antserve" --tmp "$out/tmp" "$@"
