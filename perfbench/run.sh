#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload serve-densenet --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every file the build and the run write
# (the Go build cache, the binary and span dumps) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/tmp"
export GOTMPDIR="${out}/tmp"
export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export XDG_CONFIG_HOME="${out}/config"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go -C perfbench build -o "${out}/securetf-perfbench" .
exec "${out}/securetf-perfbench" "$@"
