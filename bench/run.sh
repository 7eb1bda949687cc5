#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the toolchain writes (build cache, temp files)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false TMPDIR="$build/tmp"
BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)"
export BENCH_COMMIT
go build -C bench -o "$build/darwin-bench" . >&2
exec "$build/darwin-bench" "$@"
