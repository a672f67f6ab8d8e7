#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the checkout:
#
#   bash perfbench/run.sh --workload replica-lab --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build in the checkout:
# the Go build cache, GOPATH and HOME point there, and the toolchain is
# kept local with no module proxy.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-mod=readonly GOTELEMETRY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
