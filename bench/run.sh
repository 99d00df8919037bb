#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# execs it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload quick-grid --seed 42 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temp files, toolchain
# telemetry, the binary) stays under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
