#!/usr/bin/env python3
"""Build and run the CASH request benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

The script configures and builds perfbench/ (which compiles the
repository's src/ library) into .bench_build/ at the repository root,
then runs the benchmark binary with the same arguments.  Build output
goes to stderr; the binary's stdout is passed through, so the last line
of stdout is the benchmark's JSON result.  Exits non-zero, without a
result line, when the sources are missing or the build or run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# One run measures for --seconds and then checks its outputs; anything
# far beyond that is a hang.  The driver allows 180 s per run.
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; return its exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return 1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no src/ tree next to perfbench/; "
                         "run from a checkout of the repository\n")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300) != 0:
            return False
    return run_logged(["cmake", "--build", BUILD, "--target", "perfbench",
                       "-j", BUILD_JOBS], 880) == 0


def main():
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 2
    proc = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
