#!/usr/bin/env bash
# Builds the Study.Run benchmark from the sources of the checkout it is run
# in, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload crawl-cold --seed 2019 --seconds 20 --trace 0
#
# Every build and run artefact, the Go build cache included, stays under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" -work "$build/work" "$@"
