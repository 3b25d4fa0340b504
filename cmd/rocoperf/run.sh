#!/usr/bin/env bash
# Builds rocoperf from this checkout's sources and runs it with the given
# arguments, e.g. from the repository root:
#
#   bash cmd/rocoperf/run.sh --workload paper8x8 --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and the campaign workload's job directories
# all live under .bench_build/ at the repository root, so nothing outside
# the checkout is written. A failed build exits non-zero before anything
# is measured.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/cmd/rocoperf" && go build -o "$out/rocoperf" .)
exec "$out/rocoperf" -data "$out/rocoperf-data" "$@"
