#!/usr/bin/env python3
"""Build and run the perfbench benchmark from a checkout of the repository.

    python3 perfbench/run.py --workload study|track|verify --seed N \
        --seconds S --trace 0|1

Run from the root of the checkout. The script configures and builds
perfbench/ (which compiles the libraries from src/) into .bench_build/,
runs one workload, and forwards the program's output: the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Build logs and progress go to standard error.

BENCHMARK.json is the one list of metrics: the program prints plain values,
and this script gives each declared metric its unit. A per-layer metric the
workload does not produce (a layer it bypasses) reads 0; a metric the
program prints that BENCHMARK.json does not declare makes the run incorrect.

The exit code is not 0, and no result is printed, when the sources are
missing, the build fails, the program fails or overruns its time limit, or
it omits an end-to-end metric.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures once, then rebuilds (a no-op when nothing changed)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources at %s/src; run from a full checkout" % ROOT)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr)
    if result.returncode != 0:
        log("build failed")
        return False
    return True


def source_digest():
    """SHA-256 over the paths and contents of src/ and perfbench/."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["study", "track", "verify"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench overran %d s" % RUN_TIMEOUT_S)
        return 1
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        log("perfbench exited with code %d" % result.returncode)
        return 1
    try:
        final = json.loads(lines[-1])
    except json.JSONDecodeError:
        final = None
    if not isinstance(final, dict) or set(final) != RESULT_KEYS:
        log("perfbench printed no result line")
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]
    produced = final["metrics"]
    for name in sorted(set(produced) - {m["name"] for m in declared}):
        log("CHECK FAILED: %s is not declared in BENCHMARK.json" % name)
        final["correct"] = False
    metrics = {}
    for metric in declared:
        if metric["name"] in produced:
            value = produced[metric["name"]]
        elif args.trace == "1":
            value = 0
        else:
            log("perfbench did not measure %s" % metric["name"])
            return 1
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    final["metrics"] = metrics
    print("\n".join(lines[:-1]))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
