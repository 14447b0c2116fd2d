#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given (see BENCHMARK.json). Everything the build writes — the Go
# build cache, temporary files and the binary — stays under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: run from the root of a dapple checkout (no go.mod here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOENV=off GOTOOLCHAIN=local GOWORK=off

sha=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
go build -buildvcs=false -ldflags "-X main.gitSHA=$sha" -o "$build/dapple-benchmark" ./benchmark >&2

exec "$build/dapple-benchmark" "$@"
