#!/usr/bin/env python3
"""Build the layer benchmark from this checkout's sources, then run it.

    python3 layerbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and compiles
layerbench/ (which compiles ../src) into .bench_build/layerbench; later
calls only check that the build is up to date.  Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.  Exits
non-zero, printing no result, if the library sources are missing or the
build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "layerbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("layerbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ beside the benchmark; run it from a full checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append([cmake, "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", BUILD, "-j", jobs, "--target", "layerbench"])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S, check=True)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
    return os.path.join(BUILD, "layerbench")


def main():
    binary = build()
    scratch = os.path.join(BUILD, "tmp")
    os.makedirs(scratch, exist_ok=True)
    try:
        done = subprocess.run([binary] + sys.argv[1:] + ["--scratch", scratch],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
