#!/usr/bin/env bash
# Builds the iramperf harness and runs one benchmark measurement:
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build product, the Go build
# cache included, goes under .bench_build, so the run writes nothing
# outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$build/iramperf" ./iramperf
exec "$build/iramperf" run "$@"
