#!/usr/bin/env bash
# Builds the benchmark and runs it with the arguments given, from the root
# of a checkout. Everything the build and the run write stays inside the
# checkout, under .bench_build/: the Go build cache, the binary, and the
# temporary directory that holds the archives, journals and traces of a run.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

go build -C "$here" -o "$out/avm-bench" .
exec "$out/avm-bench" "$@"
