#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the Go
# toolchain and the benchmark write — build cache, binary, broker data,
# trace files — under .bench_build/ at the root of the checkout.
#
#   bash benchmark/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh compare <old.jsonl>[,...] <new.jsonl>[,...]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
