#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles the fiveg
library from src/) under $CARGO_TARGET_DIR or .bench_build; later calls
only re-check the build. The benchmark binary then runs the workload and
prints its inputs, a diagnostic line and, as the last line, one JSON
result object. Exit status is non-zero, with no result printed, when the
sources are missing, the build fails, or the workload cannot run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("tcp_bulk", "udp_flood", "city_cohort", "campaign_smoke")
RUN_TIMEOUT_S = 170  # a run must end within 180 s
BUILD_TIMEOUT_S = 840  # the first build may take up to 900 s


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    bench_dir = os.path.join(root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", bench_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def is_result(line):
    try:
        doc = json.loads(line)
    except ValueError:
        return False
    return isinstance(doc, dict) and set(doc) == {
        "correct", "attempted", "failed", "metrics"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    # Deliberate breakage, for the benchmark's own tests only.
    parser.add_argument("--sabotage", choices=("checksum", "invariant"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no fiveg sources under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR")
                              or ".bench_build")
    try:
        binary = build(root, os.path.join(build_root, "perfbench"))
    except (subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(build_root, "work"),
           "--golden-dir", os.path.join(root, "bench", "golden")]
    if args.sabotage:
        cmd += ["--sabotage", args.sabotage]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not is_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        print(f"perfbench: {args.workload} exited {proc.returncode} "
              "without a result", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
