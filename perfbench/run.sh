#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# repository root:
#   bash perfbench/run.sh --workload local-saturated --seed 1 --seconds 15 --trace 0
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
  GOFLAGS= GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
