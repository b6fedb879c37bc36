#!/usr/bin/env bash
# Regenerates the checked-in benchmark JSON (BENCH_micro.json,
# BENCH_pipeline.json, BENCH_observe.json, BENCH_scale.json,
# BENCH_parallel.json and BENCH_scrub.json) from a Release + NDEBUG
# build, so the recorded perf trajectory is reproducible from one command:
#
#   scripts/run_benches.sh
#
# Run from anywhere; results land at the repository root.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"

cmake --preset bench
cmake --build --preset bench -j "$(nproc)" \
  --target bench_micro bench_pipeline bench_observe bench_scale \
           bench_parallel bench_scrub

./build-bench/bench/bench_micro \
  --benchmark_context=hardware_lanes="$(nproc)" \
  --benchmark_out="${repo_root}/BENCH_micro.json" \
  --benchmark_out_format=json
./build-bench/bench/bench_pipeline --out "${repo_root}/BENCH_pipeline.json"
./build-bench/bench/bench_observe --out "${repo_root}/BENCH_observe.json"
./build-bench/bench/bench_scale --out "${repo_root}/BENCH_scale.json"
./build-bench/bench/bench_parallel --out "${repo_root}/BENCH_parallel.json"
./build-bench/bench/bench_scrub --out "${repo_root}/BENCH_scrub.json"

echo "Wrote BENCH_micro.json, BENCH_pipeline.json, BENCH_observe.json, BENCH_scale.json, BENCH_parallel.json and BENCH_scrub.json"
