#!/usr/bin/env bash
# Builds the whole-search benchmark from the checkout's sources and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload surrogate-lean --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run leave behind stays under
# .bench_build/ in the repository root (the Go build cache included), so
# a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
