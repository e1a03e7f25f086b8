#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the Go toolchain writes (build cache, work
# directories, the binary) goes under .bench_build/, so a run reads and
# writes only inside the checkout, and nothing is fetched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$build/bench" .
exec "$build/bench" "$@"
