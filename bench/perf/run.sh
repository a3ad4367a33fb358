#!/usr/bin/env bash
# Build the benchmark from source and run it.  Arguments go to
# perf.exe unchanged, e.g.:
#   bash bench/perf/run.sh --workload load-steady --seed 0 --seconds 16 --trace 0
# Run from anywhere inside the repository checkout; the build lands in
# the checkout's _build directory.
set -euo pipefail
cd "$(dirname "$0")/../.."
# Keep the build inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/perf.exe
# Not exec'd: perf.exe reports its own processor time as setup_s, and a
# fresh child starts that count at zero, where exec would carry over
# this shell's.
./_build/default/bench/perf/perf.exe "$@"
