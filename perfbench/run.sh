#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with the
# given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload sweep-fork --seed 1 --seconds 20 --trace 0
#
# The Go build cache and the binary stay under .bench_build/ in the
# checkout; nothing is fetched (the module has no dependencies outside it,
# and GOPROXY=off makes a missing one an error).
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS= GOPROXY=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
