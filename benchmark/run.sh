#!/usr/bin/env bash
# Builds the benchmark from source and runs it; everything it writes stays
# inside the checkout (.bench_build/ for the compiler, benchmark/out/ for
# scratch indexes and trace files).
#
#   bash benchmark/run.sh --workload hot_single --seed 1 --seconds 12 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# A private build cache keeps the compiler out of $HOME; no module is ever
# downloaded (the benchmark imports the standard library and this repo).
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/prixbench" .
cd "$root"
exec "$build/prixbench" "$@"
