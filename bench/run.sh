#!/bin/sh
# Builds the benchmark from source into .bench_build/ (Go build cache
# and temporaries included, so nothing is written outside the checkout)
# and runs it from the repository root with the given arguments.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/torbench" .)
exec "$build/torbench" "$@"
