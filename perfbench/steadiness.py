#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Usage (from the repository root):

    python3 perfbench/steadiness.py --seeds 10 --first-seed 1000 \
        --save a.json > a.md
    python3 perfbench/steadiness.py --seeds 10 --first-seed 2000 \
        --against a.json > b.md

Runs every workload once per seed (seed-major, so slow phases of a shared
host spread over all workloads), then prints a Markdown record: for each
end-to-end metric its median, quartiles and spread, the spread being
(Q3 - Q1) / median as statistics.quantiles(values, n=4) gives them, next to
the metric's bound in BENCHMARK.json. A second table compares candidate
host-time statistics (the 11th-fastest slice, p10, p25, median) by their
spread across runs, which is the evidence for reducing host time by p10.

--save writes the batch's metric values to a JSON file. --against reads
such a file from an earlier batch and adds, per metric, how much worse this
batch's median is than the earlier one, as a share of the earlier median,
next to the bound: the check that two sets of runs of the same code agree.
"""

import argparse
import csv
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py: build() and paths)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")


def order_stats(values):
    s = sorted(values)
    n = len(s)
    return {"r10": s[10], "p10": s[n // 10], "p25": s[n // 4],
            "p50": s[n // 2]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    if not run.build():
        return 1
    samples_dir = run.SCRATCH / "samples"
    samples_dir.mkdir(parents=True, exist_ok=True)

    metrics = {w: {} for w in workloads}
    host = {w: {} for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in workloads:
            samples = samples_dir / ("%s-%d.csv" % (workload, seed))
            done = subprocess.run(
                [str(run.BUILD / "perfbench"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0", "--scratch", str(run.SCRATCH),
                 "--samples", str(samples)],
                stdout=subprocess.PIPE, text=True, check=False)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print("%s seed %d failed its checks" % (workload, seed),
                      file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                metrics[workload].setdefault(name, []).append(m["value"])
            with samples.open() as f:
                rows = list(csv.DictReader(f))
            for column in ("run_s", "setup_s"):
                stats = order_stats([float(r[column]) for r in rows])
                for key, value in stats.items():
                    host[workload].setdefault((column, key), []).append(value)
            print("%s seed %d: %d slices" % (workload, seed, len(rows)),
                  file=sys.stderr)

    if args.save:
        args.save.write_text(json.dumps(metrics, indent=1))
    earlier = json.loads(args.against.read_text()) if args.against else {}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    print("%d runs per workload, seeds %d-%d, %d s each.\n"
          % (args.seeds, args.first_seed, args.first_seed + args.seeds - 1,
             seconds))
    for workload in workloads:
        print("### %s\n" % workload)
        print("| metric | median | Q1 | Q3 | spread | bound | spread/bound |")
        print("|---|---|---|---|---|---|---|")
        for name, values in metrics[workload].items():
            q1, q2, q3 = statistics.quantiles(values, n=4)
            s = spread(values)
            print("| %s | %.6g | %.6g | %.6g | %.4f | %.2f | %.2f |"
                  % (name, q2, q1, q3, s, bounds[name], s / bounds[name]))
        print("\nHost-time statistic, spread across runs "
              "(11th-fastest slice / p10 / p25 / median):\n")
        for column, label in (("run_s", "slice run time"),
                              ("setup_s", "slice set-up time")):
            cells = ["%s %.4f" % (key, spread(host[workload][(column, key)]))
                     for key in ("r10", "p10", "p25", "p50")]
            medians = ["%.4g ms" % (statistics.median(
                host[workload][(column, key)]) * 1e3)
                for key in ("p10", "p50")]
            print("- %s: %s (median of p10 %s, of median %s)"
                  % (label, ", ".join(cells), medians[0], medians[1]))
        print()
        if workload in earlier:
            print("Against the earlier batch (worse = this median's change "
                  "in the metric's bad direction, as a share of the earlier "
                  "median):\n")
            print("| metric | earlier median | this median | worse | bound "
                  "| within |")
            print("|---|---|---|---|---|---|")
            for name, values in metrics[workload].items():
                before = statistics.median(earlier[workload][name])
                now = statistics.median(values)
                change = (now - before) / before if before else 0.0
                worse = change if lower[name] else -change
                print("| %s | %.6g | %.6g | %+.4f | %.2f | %s |"
                      % (name, before, now, worse, bounds[name],
                         "yes" if worse <= bounds[name] else "NO"))
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
