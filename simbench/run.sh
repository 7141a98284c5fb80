#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it. Run it from the
# repository root:
#
#   bash simbench/run.sh --workload farm-table1 --seed 37 --seconds 15 --trace 0
#   bash simbench/run.sh --workload all
#
# The binary, the Go build cache, the compiler's temporary files and the
# go command's telemetry all live in .bench_build/ under the repository
# root, so the build writes nothing outside the checkout and needs no
# network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/simbench" && go build -o "$out/simbench" .)
exec "$out/simbench" "$@"
