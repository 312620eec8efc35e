#!/usr/bin/env bash
# Builds the fabric benchmark from source and runs it with the given flags.
# Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload discover --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
