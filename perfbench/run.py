#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (a CMake project on top of the repo's libraries) into
.bench_build/perfbench, runs the named workload (its fixed settings are
constants of its source file under perfbench/src), and prints the
binary's metric listing
followed by one JSON line: the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1). Exits non-zero when
the build fails, the repo sources are missing, or any output failed its
correctness check. perfbench/METRICS.md documents every metric.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RESULT_TAG = "PERFBENCH_RESULT "
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_checked(command, timeout):
    """Run a build step with its output on stderr; die on failure."""
    try:
        subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        die(f"build step failed: {e}")


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"repo sources not found ({needed} missing next to "
                "perfbench/); run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt one checked output")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    known = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in known:
        die(f"unknown workload {args.workload!r} (known: {', '.join(known)})")
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]

    build()

    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.corrupt:
        command.append("--corrupt")
    try:
        # A traced run writes its spans_<workload>.csv into the build tree.
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=BUILD, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_TAG):
            result = json.loads(line[len(RESULT_TAG):])
        else:
            print(line)
    if result is None:
        die(f"{args.workload} printed no result (exit {proc.returncode})")

    metrics = {}
    for spec in wanted:
        measured = result["metrics"].get(spec["name"])
        if measured is None or measured["value"] is None or \
                not math.isfinite(measured["value"]):
            die(f"metric {spec['name']} missing or not finite")
        if not measured["applies"]:
            die(f"metric {spec['name']} is not measured on {args.workload}")
        if measured["unit"] != spec["unit"]:
            die(f"metric {spec['name']} unit {measured['unit']} != "
                f"{spec['unit']}")
        metrics[spec["name"]] = {"value": measured["value"],
                                 "unit": spec["unit"]}
    correct = result["correct"] and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}),
          flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
