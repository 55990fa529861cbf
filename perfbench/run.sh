#!/usr/bin/env bash
# Builds tddserve and the benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload warm_read --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and output stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# in the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$build/bin/tddserve" ./cmd/tddserve
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -server "$build/bin/tddserve" -out "$build/perfbench" "$@"
