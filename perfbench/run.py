#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fresh_open --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/perfbench under the repository root
(Release, incremental after the first run). Build output is sent to
stderr, so the result JSON stays the last line of stdout. The
script exits non-zero without printing a result when the build fails,
for instance when the library sources are missing.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fresh_open", "flood_open", "wire_mixed")


def build() -> Path:
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: build failed: {exc}", file=sys.stderr)
        return 2

    trace_dir = ROOT / ".bench_build" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-dir", str(trace_dir)]
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
