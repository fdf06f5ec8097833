#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed through (see perfbench/README.md). Run it from the
# repository root:
#
#	bash perfbench/run.sh --workload tune-general --seed 1 --seconds 20 --trace 0
#
# All build state (Go build cache, temporary files, the binary) stays
# under .bench_build/ in the working directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
