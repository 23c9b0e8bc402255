#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload des_paper --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (and the smartred libraries
from src/) into .bench_build/perfbench; later calls rebuild only what
changed. Build output goes to stderr. The benchmark's result is the last
line of stdout, one JSON object with the keys correct, attempted, failed
and metrics. The exit code is 0 only when the build succeeded, every
correctness check passed and the metrics are exactly the ones
BENCHMARK.json declares for the requested mode.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SCRATCH = ROOT / ".bench_build" / "perfbench-scratch"
# One run measures for --seconds, but never for longer than the process may
# live; the benchmark binary enforces its own 150 s limit before this one.
RUN_TIMEOUT_S = 175
BUILD_JOBS = str(min(2, os.cpu_count() or 1))


def build():
    """Configures (once) and builds the perfbench target; False on failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", str(SCRATCH)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if not lines:
        print("perfbench: no result (exit %d)" % done.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = declared_metrics(args.trace == 1)
    if printed != declared:
        print("perfbench: printed metrics %s differ from BENCHMARK.json %s"
              % (sorted(printed.items()), sorted(declared.items())),
              file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    return 0 if done.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
