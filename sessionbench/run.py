#!/usr/bin/env python3
"""Builds the whole-session benchmark from this checkout's sources and runs it.

    python3 sessionbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 sessionbench/run.py --self-check

The build (Release, CMake) goes to $CARGO_TARGET_DIR, or .bench_build when
that is unset, relative to the checkout root; build output goes to standard
error, so the benchmark's JSON result stays the last line of standard
output. Any argument is passed on to session_bench unchanged.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "session_bench",
                  "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode
        if rc != 0:
            print("session bench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return rc
    return 0


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    rc = build(build_dir)
    if rc != 0:
        return rc
    exe = os.path.join(build_dir, "session_bench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
