#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload pair-probe --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. The build and everything the Go
# toolchain caches stay under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

bin="$out/perfbench"
tmp="$bin.$$"
(cd "$here" && go build -o "$tmp" .)
mv -f "$tmp" "$bin"
exec "$bin" --root "$root" "$@"
