#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 15 --trace 0
# The build cache and the binary stay under .bench_build/ in the
# repository root, so the benchmark writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build" GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
