#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments:
#
#   bash benchmark/run.sh --workload fleet-steady --seed 1 --seconds 12 --trace 0
#
# Run it from the root of the checkout. The binary, the Go build cache and
# every other build output stay under .bench_build there.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOENV=off CGO_ENABLED=0

(cd "$root/benchmark" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
