#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the Go toolchain writes (build cache, module cache, the
# binary) stays under .bench_build/ in the directory the command was
# started from, so a run reads and writes only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go build -C "$here" -o "$build/ldbnadapt-bench" .
exec "$build/ldbnadapt-bench" -out "$here/out" "$@"
