#!/usr/bin/env python3
"""Build and run the fastdiag end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which builds the library from this
checkout) into .bench_build/perfbench, then runs the fastdiag_perf binary.
Build output goes to stderr, so the last line on stdout is the benchmark's
JSON result. Span files of traced runs land in .bench_build/traces.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
TRACE_DIR = os.path.join(BUILD_ROOT, "traces")
WORKLOADS = ("fleet_1pct", "classify_wrap", "diagd_jobs", "infield_scan")

BUILD_TIMEOUT_S = 850
# Measured time plus set-up, warm-up and verification stay well inside this.
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "fastdiag_perf",
                  "--parallel", jobs])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no fastdiag sources (CMakeLists.txt, src/) "
                 "next to perfbench/; run it from a fastdiag checkout")
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        sys.exit(f"perfbench: build failed: {error}")

    os.makedirs(TRACE_DIR, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "fastdiag_perf"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", TRACE_DIR]
    try:
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
