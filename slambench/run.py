#!/usr/bin/env python3
"""Builds the SlamService benchmark from source and runs one workload.

Run from the repository root:

    python3 slambench/run.py --workload fleet_fabric --seed 1 --seconds 40 --trace 0

The build goes to $CARGO_TARGET_DIR/slambench (default .bench_build/slambench);
results, diagnostics and traces go to <build root>/slambench-out.  Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "slam_service.h")):
        print("slambench: engine sources (src/) not found next to slambench/",
              file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "slambench")
    out_dir = os.path.join(build_root, "slambench-out")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("slambench: build failed", file=sys.stderr)
            return 2
    binary = os.path.join(build_dir, "slambench")
    return subprocess.run([binary, *sys.argv[1:], "--out-dir", out_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
