#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1
    python3 perfbench/run.py --workload <name> --short      # self-test sized run

The first call configures and builds perfbench/ (the library sources of the
checkout plus the benchmark program) into .bench_build/perfbench. With
--trace 0 the last stdout line carries every end-to-end metric, with
--trace 1 every per-layer metric.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
SHORT_SECONDS = 1


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "experiment.hpp")):
        log(f"no library sources under {ROOT}/src; run from a checkout of the repo")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build logs go to stderr: stdout is reserved for the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help=f"self-test size: a {SHORT_SECONDS} s run")
    args = ap.parse_args()
    seconds = SHORT_SECONDS if args.short else args.seconds

    if not build():
        return 2

    proc = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(seconds), "--trace", str(args.trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    sys.stdout.write(proc.stdout)
    if not proc.stdout.strip():
        log(f"no output (exit code {proc.returncode})")
        return proc.returncode or 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
