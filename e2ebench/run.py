#!/usr/bin/env python3
"""Builds and runs the zerobak end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (e2ebench/CMakeLists.txt, which compiles the system from src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs reuse the
build. Build output goes to stderr so the last line of stdout stays the
benchmark's JSON result. Exits non-zero, without a result, when the sources
or the build are missing or broken.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def build(build_root):
    build_dir = os.path.join(build_root, "e2ebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "zbbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "zbbench")


def main():
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: zerobak sources (src/) not found next to the "
              "benchmark", file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(REPO_ROOT, build_root)
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    proc = subprocess.run([binary] + sys.argv[1:], cwd=REPO_ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
