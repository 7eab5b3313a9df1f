#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash vbench/run.sh --workload paper-sync --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and any Go tool state live under
# .bench_build/ at the repository root, so a run writes nothing outside
# the checkout. The build needs the simulator module one directory up;
# without it the script fails before running anything.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C "$here" build -o "$out/vbench" .
exec "$out/vbench" "$@"
