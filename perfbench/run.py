#!/usr/bin/env python3
"""Build and run the gfre benchmark.

    python3 perfbench/run.py --workload crypto_single|batch_stream|cache_replay \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a gfre checkout.  The library and the harness are built
from source (Release) into .bench_build/perfbench on first use; later runs
only re-check the build.  Build output goes to stderr.  The harness prints
the host context, notes and every metric by name and unit, and as the last
line of stdout one JSON object with the keys correct, attempted, failed and
metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no gfre sources next to perfbench/ (expected CMakeLists.txt "
             "and src/ in %s)" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def run(command):
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["crypto_single", "batch_stream",
                                 "cache_replay"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="build and run the benchmark's self-check")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")

    build()
    sys.stdout.flush()
    if args.selfcheck:
        return run([os.path.join(BUILD, "perfbench_selfcheck")])
    return run([os.path.join(BUILD, "perfbench_harness"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--work-dir", os.path.join(".bench_build", "work")])


if __name__ == "__main__":
    sys.exit(main())
