#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the caller's
# arguments. Everything the build leaves behind (binary, Go build cache)
# stays under .bench_build/ at the root of the checkout, so a run reads
# and writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$build/xbench11" .) >&2
exec "$build/xbench11" "$@"
