#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it, passing the
# arguments through:
#
#   bash perfbench/run.sh --workload fig5a-cold --seed 42 --seconds 10 --trace 0
#
# The binary, the span files and Go's build cache all live under
# $CARGO_TARGET_DIR (default .bench_build, relative to the checkout), so a
# run writes nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" --out "$build/spans" "$@"
