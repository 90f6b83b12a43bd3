#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the repository root; the first run configures and compiles, later runs
only re-check it.  Build output goes to stderr, so stdout carries the report
and, as its last line, the result JSON.  The exit code is the benchmark's.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "runner", "trial_runner.h")):
        print("perfbench: libdhc sources not found under " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code = subprocess.call(cmd, stdout=sys.stderr)
        if code != 0:
            return code
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", out, "--target", target, "-j", jobs],
                           stdout=sys.stderr)


def main(argv):
    target = "perfbench_tests" if argv == ["--selftest"] else "perfbench"
    code = build(target)
    if code != 0:
        return code
    binary = os.path.join(build_dir(), target)
    args = [] if target == "perfbench_tests" else argv
    sys.stdout.flush()
    return subprocess.call([binary] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
