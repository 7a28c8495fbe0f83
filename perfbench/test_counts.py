#!/usr/bin/env python3
"""The benchmark's own test: work counts repeat across runs of one seed.

    python3 perfbench/test_counts.py [--workload study|track|verify] [--seed N]

For each workload (default: all three) it runs perfbench/run.py twice on one
seed, the first time untraced and the second time traced, and checks that

  * both runs pass their correctness checks (run.py fails a run that prints
    a metric BENCHMARK.json does not declare),
  * the exact work counts (the "counts" line) are identical, and
  * every exact count reappears unchanged among the traced run's per-layer
    metrics.

Timing-dependent counts (serve.batches, queue-full retries) are not in the
"counts" line and are not compared. Exits 1 on the first failed check.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace)]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, timeout=600)
    if result.returncode != 0:
        sys.exit("FAIL %s: run.py exited with %d" % (workload,
                                                     result.returncode))
    lines = result.stdout.strip().splitlines()
    counts = next(json.loads(line[len("counts "):]) for line in lines
                  if line.startswith("counts "))
    return counts, json.loads(lines[-1])


def check(condition, message):
    if not condition:
        sys.exit("FAIL " + message)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=["study", "track", "verify"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    workloads = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]]
    for workload in workloads:
        counts, plain = run(workload, args.seed, 0)
        counts_again, traced = run(workload, args.seed, 1)
        check(plain["correct"] and traced["correct"],
              "%s: a run failed its correctness checks" % workload)
        check(counts == counts_again,
              "%s: work counts differ between runs: %s vs %s"
              % (workload, counts, counts_again))
        for name, value in counts.items():
            check(traced["metrics"][name]["value"] == value,
                  "%s: %s reads %s traced, %s in the counts"
                  % (workload, name, traced["metrics"][name]["value"], value))
        print("ok %s: %d exact counts repeat" % (workload, len(counts)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
