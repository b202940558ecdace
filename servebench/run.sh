#!/usr/bin/env bash
# Builds the served-session benchmark from this checkout's sources and
# runs it with the given arguments, e.g.
#
#   bash servebench/run.sh --workload onboard --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/servebench" && go build -o "$build/servebench" .)
export SERVEBENCH_TMP=$build/tmp
exec "$build/servebench" "$@"
