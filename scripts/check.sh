#!/usr/bin/env bash
# The one-command pre-merge gate: configure, build and run the full test
# suite under both the default (RelWithDebInfo) and the ASan+UBSan
# sanitize presets, smoke-run the measurement benches, then run the
# end-to-end benchmark's self-test (every workload's correctness and
# determinism checks). This is what CI runs; a green check.sh is the bar
# every change must clear.
#
#   scripts/check.sh             # everything
#   scripts/check.sh --fast      # default preset only (inner-loop use)
#
# Run from anywhere.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"

fast=0
for arg in "$@"; do
  case "${arg}" in
    --fast) fast=1 ;;
    *) echo "unknown argument: ${arg}" >&2; exit 2 ;;
  esac
done

jobs="$(nproc)"
# The bench smokes write their JSON here; removed on exit.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}"' EXIT
presets=(default)
if [[ "${fast}" -eq 0 ]]; then
  presets+=(sanitize)
fi

for preset in "${presets[@]}"; do
  echo "=== preset: ${preset} ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}" -j "${jobs}"
done

# TSan pass over the parallel compute layer: only the suites that still
# drive the thread pool (the pool itself, the CRC dispatch's concurrent
# first call, bulk-frame capture and the lane-count determinism drills) —
# the rest of the suite is single-threaded simulation and would just burn
# TSan's ~10x slowdown for nothing.
if [[ "${fast}" -eq 0 ]]; then
  echo "=== preset: tsan (parallel subset) ==="
  cmake --preset tsan
  cmake --build --preset tsan -j "${jobs}" \
    --target exec_test common_test replication_test integration_test \
             bench_parallel
  ctest --preset tsan -j "${jobs}" \
    -R 'ThreadPool|Crc32cKernel|BulkFrame|ParallelSystem|ParallelEngine'
  ./build-tsan/bench/bench_parallel --quick \
    --out "${smoke_dir}/parallel_tsan.json"
fi

# The bench smokes already ran once under ctest above (bench_*_smoke
# carry their own acceptance checks); re-run them standalone here so a
# bench regression prints its table instead of hiding behind a ctest
# failure line.
if [[ "${fast}" -eq 0 ]]; then
  echo "=== bench smokes ==="
  ./build/bench/bench_pipeline --quick --out "${smoke_dir}/pipeline.json"
  ./build/bench/bench_observe --quick --out "${smoke_dir}/observe.json"
  ./build/bench/bench_scale --quick --out "${smoke_dir}/scale.json"
  ./build/bench/bench_parallel --quick --out "${smoke_dir}/parallel.json"
  ./build/bench/bench_scrub --quick --out "${smoke_dir}/scrub.json"
fi

# The end-to-end benchmark's self-test: each workload runs briefly,
# untraced and traced, and must report correct, with no failed operation
# and every determinism self-check ok. It builds the benchmark into
# .bench_build (or $CARGO_TARGET_DIR) on first use.
if [[ "${fast}" -eq 0 ]]; then
  echo "=== e2ebench self-test ==="
  python3 e2ebench/test_bench.py
fi

echo "check.sh: all green"
