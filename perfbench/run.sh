#!/usr/bin/env bash
# Builds and runs natix's benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The Go build cache and the binary live in .bench_build inside the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
go -C perfbench build -buildvcs=false -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
