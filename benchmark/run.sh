#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout (build cache and all) and runs it with the given
# arguments. Run from the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# Nothing is read or written outside the checkout: no user Go env file,
# no shared caches, no toolchain download.
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOCACHE="$build/gocache" GOPATH="$build/gopath"
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
