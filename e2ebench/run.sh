#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it.
#
#   bash e2ebench/run.sh --workload hot_exact --seed 1 --seconds 10 --trace 0
#   bash e2ebench/run.sh --selftest
#
# The build lands in .bench_build/ at the repository root. Build output goes
# to stderr, so the last line of stdout is gmc_e2e's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build=.bench_build

if [ ! -f "$build/Makefile" ]; then
  cmake -S e2ebench -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi

if [ "${1:-}" = "--selftest" ]; then
  cmake --build "$build" -j"$(nproc)" --target gmc_e2e_test >&2
  exec "$build/gmc_e2e_test"
fi

cmake --build "$build" -j"$(nproc)" --target gmc_serve gmc_e2e >&2
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$build/gmc_e2e" --server "$build/gmc/gmc_serve" --work "$build/e2e" \
  --commit "$commit" "$@"
