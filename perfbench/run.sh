#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, e.g.
#
#   bash perfbench/run.sh --workload dict --seed 1 --seconds 25 --trace 0
#
# Every build output, the Go build cache and the toolchain's scratch and
# config files stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
