#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given arguments, from the checkout root. The binary, the Go build cache and
# the benchmark's scratch files all stay under .bench_build/ in the checkout.
#
#   bash bench/run.sh -workload lockstep-v3 -seed 1
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
