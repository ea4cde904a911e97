#!/usr/bin/env bash
# Builds hbbench from the checkout this script sits in and runs it with the
# arguments given. Everything the build writes — the Go build cache and the
# binary — stays under .bench_build/ in that checkout, so a run touches
# nothing outside it and a second run in the same checkout only relinks what
# changed.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
go build -o "$build/hbbench" ./bench/hbbench
exec "$build/hbbench" -out "$root/bench/out" "$@"
