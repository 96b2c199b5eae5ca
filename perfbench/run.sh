#!/usr/bin/env bash
# Builds the system under test (localbench, localserved, localsweepd, with the
# default build) and the benchmark program from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload corpus|serve|jobs --seed N --seconds S --trace 0|1
#
# Every file it writes (Go build cache, binaries, spools, traces) lands under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOMODCACHE="$build/gomod" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go build -o "$build/bin/" ./cmd/localbench ./cmd/localserved ./cmd/localsweepd
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" -work "$build/run" "$@"
