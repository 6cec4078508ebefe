#!/usr/bin/env python3
"""Builds the PriView benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload release --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles ../src) into
.bench_build/ with CMAKE_BUILD_TYPE=Release; later calls only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero, without a result, when the sources
are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_ = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    child = subprocess.Popen([os.path.join(BUILD, "perfbench")] + sys.argv[1:],
                             cwd=ROOT)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
