#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload ps64 --seed 1 --seconds 20 --trace 0
# Run it from the repository root. The Go build cache and temporary files
# stay inside .bench_build/ too.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
