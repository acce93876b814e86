#!/usr/bin/env bash
# Regenerates the committed serving-path load baseline: builds the
# load_serve bench in Release and writes BENCH_serve.json at the
# repository root. The bench asserts its criteria itself (served verdicts
# bit-identical to per-call Identify; batched QPS >= 0.9x the per-call
# baseline at pipeline depths 1 and 4, and >= 2x it at saturation).
#   scripts/serve_baseline.sh [--quick]
# --quick (the CI smoke mode) shrinks request counts and relaxes the
# speedup floor — tiny runs on a loaded CI core are noisy.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=""
for arg in "$@"; do
  if [[ "$arg" == "--quick" ]]; then QUICK="--quick"; fi
done

cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-bench -j "$(nproc)" --target load_serve
./build-bench/bench/load_serve ${QUICK} --json BENCH_serve.json
