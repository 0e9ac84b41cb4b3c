#!/usr/bin/env python3
"""Builds the scenario benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build tree is $CARGO_TARGET_DIR (default .bench_build) under the current
directory; generated inputs, counter histories and span dumps go to its
work/ subdirectory.  Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result.  Exits nonzero, without a result, when the
build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    work_dir = os.path.join(build_root, "work")
    os.makedirs(work_dir, exist_ok=True)

    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1

    exe = os.path.join(build_dir, "mvf_perfbench")
    return subprocess.run([exe, *sys.argv[1:], "--work-dir", work_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
