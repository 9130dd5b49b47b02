#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it. Everything the build writes (Go build cache, binary, Go's own
# configuration and telemetry files, traces) stays under .bench_build at
# the checkout root. Usage, from the checkout root:
#
#   bash perfbench/run.sh --workload spec-tainted --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady --runs 10
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
