#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it with the given
# flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload light --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes to .bench_build/ in
# the current directory (binary, Go build cache, span files).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOWORK=off

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
