#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 30 --trace 0
#
# Without arguments every workload runs, untraced and then traced. The
# build cache, the binary and the span files stay under .bench_build/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
