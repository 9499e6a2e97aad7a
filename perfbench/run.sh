#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the arguments
# given, from the repository root:
#
#   bash perfbench/run.sh --workload cell-4096 --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and a traced run's spans and CPU profile all
# stay under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/perfbench"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C perfbench -o "$out/perfbench/perfbench" .
exec "$out/perfbench/perfbench" --out "$out/perfbench/trace" "$@"
