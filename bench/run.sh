#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; BENCHMARK.json
# names this script as the benchmark command:
#
#   bash bench/run.sh --workload serve-point --seed 1 --seconds 10 --trace 0
#
# The Go build cache and the binary live in .bench_build/ inside the checkout,
# so nothing outside it is written. The first call compiles the standard
# library into that cache (about a minute on two cores); later calls only
# re-check it. Without the repository around it (no go.mod above bench/) the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local
# -buildvcs=false: a checkout nested in somebody else's repository must not
# fail the build on VCS stamping; the program asks git for the commit itself.
go build -buildvcs=false -o .bench_build/bench ./bench >&2
exec .bench_build/bench "$@"
