#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash bench/run.sh --workload churn-small --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare A/ B/
#
# Every file the build writes (binary, Go build cache, temporaries) stays
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly XDG_CONFIG_HOME="$build/config"

# A checkout without VCS metadata (or one git refuses to read) still
# builds; the result files then record the commit as unknown.
(cd bench && { go build -o "$build/ocpbench" . 2>/dev/null || go build -buildvcs=false -o "$build/ocpbench" .; })
exec "$build/ocpbench" "$@"
