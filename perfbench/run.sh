#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload solve|serve|fleet --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build product, Go cache and trace
# file goes under .bench_build/perfbench, so the run reads and writes nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off CGO_ENABLED=0

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -spec "$root/BENCHMARK.json" -counts "$here/counts.json" -out "$build" "$@"
