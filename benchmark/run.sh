#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build and the run write stays under the checkout:
# .bench_build/ (Go build cache, temp files, the binary) and benchmark/out/
# (store directories, WAL, span files).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
# HOME moves what the go command keeps per user (GOPATH, telemetry) into the
# checkout too; nothing is downloaded: the module has no dependencies.
(cd "$here" && HOME="$build/home" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOTOOLCHAIN=local \
	GOWORK=off GOPROXY=off go build -o "$build/tubenchmark" .)
cd "$root"
exec "$build/tubenchmark" "$@"
