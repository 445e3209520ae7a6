#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash wdbench/run.sh --workload rounds-walk --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, module cache, temporary
# files, telemetry) and the binary itself go under .bench_build in the
# repository root; the benchmark writes its span files under .bench_out.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/wdbench" && go build -o "$build/wdbench" .)
exec "$build/wdbench" "$@"
