#!/usr/bin/env bash
# Regenerates the committed gateway-soak baseline: builds the soak_gateway
# bench in Release and writes BENCH_gateway.json at the repository root.
#   scripts/soak_baseline.sh [--quick]
# --quick (the CI smoke mode) shrinks the scale sweep and churn length.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=""
for arg in "$@"; do
  if [[ "$arg" == "--quick" ]]; then QUICK="--quick"; fi
done

cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-bench -j "$(nproc)" --target soak_gateway
./build-bench/bench/soak_gateway ${QUICK} --json BENCH_gateway.json
