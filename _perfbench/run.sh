#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash _perfbench/run.sh --workload quiet-quad --seed 1 --seconds 50 --trace 0
#
# Run from the repository root. Everything the build leaves behind (the
# Go build cache and the binary) goes under .bench_build/ in the current
# directory; nothing is fetched, so a checkout without the repository's
# module (go.mod, internal/) fails here with a non-zero exit and prints
# no result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/_perfbench" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
