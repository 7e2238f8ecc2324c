#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the root of the checkout. Every build artifact
# and cache stays under .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload train-compute --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local \
		GOPROXY=off GOSUMDB=off GOFLAGS= \
		go build -o "$out/perfbench" .
) >&2
cd "$root"
exec "$out/perfbench" "$@"
