#!/usr/bin/env bash
# Builds the crossperf benchmark from the checkout it sits in and runs it
# with the given flags. Run from the repository root:
#
#   bash bench/run.sh --workload keyswitch-setc --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, binary, trace files)
# stays under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd bench && go build -o "$out/crossperf" ./crossperf)
exec "$out/crossperf" -trace-dir "$out" "$@"
