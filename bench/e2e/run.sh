#!/usr/bin/env bash
# Wall-clock end-to-end benchmark for MCLX (bench/e2e/README.md).
#
#   bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--runs N] [--out FILE]
#
# Builds bench/e2e, with the mclx library, into build-bench/ at the
# repository root and then runs run.py with the same arguments. Build
# output goes to stderr, so the last line on stdout is the result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no MCLX sources under $root" >&2
  exit 2
fi
build="$root/build-bench"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$root/bench/e2e" -B "$build" >&2
fi
cmake --build "$build" -j "$(nproc)" >&2
exec python3 "$root/bench/e2e/run.py" "$@"
