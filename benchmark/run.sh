#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark in its own module, with
# the go build cache inside the checkout, and run it with the driver's flags.
#
#   benchmark/run.sh --workload cold_paper --seed 1 --seconds 20 --trace 0
#
# The benchmark builds cmd/divtopkd itself, from the sources of the checkout
# it is started in. In a directory that holds nothing but BENCHMARK.json and
# benchmark/ the build fails, and so does this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# Everything the go tool writes stays inside the checkout, and a driver
# environment without HOME still builds.
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/go-cache"
export GOMODCACHE="$root/.bench_build/go-mod"
export GOTMPDIR="$root/.bench_build/tmp"
go build -C "$here" -o "$root/.bench_build/benchmark" .
cd "$root"
exec "$root/.bench_build/benchmark" "$@"
