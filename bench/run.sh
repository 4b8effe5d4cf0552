#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags,
# e.g. `bash bench/run.sh --workload ask-cold --seed 1 --seconds 25 --trace 0`.
# Go's build cache, temporary files and configuration (including its local
# telemetry counters) stay in .bench_build at the checkout root, so a run
# writes nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root/bench"
go build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
