#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash bench/run.sh -workload fig6-256 -seed 1
# Every file the Go toolchain writes (build cache, module cache, its config
# and telemetry counters) stays in .bench_build/ under the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -o "$build/poseidon-bench" .
exec "$build/poseidon-bench" "$@"
