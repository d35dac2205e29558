#!/usr/bin/env python3
"""Self-test of the benchmark's correctness check.

    python3 perfbench/selftest.py [workload ...]

For each workload (default: all in BENCHMARK.json), one short
run with --corrupt flips a single bit of one checked output: the runner
must exit non-zero and report at least one failed sequence. One short
clean run must exit 0 with no failures. Exits 1 if any expectation
fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, corrupt):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", "0"]
    if corrupt:
        command.append("--corrupt")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        known = [w["name"] for w in json.load(f)["workloads"]]
    workloads = sys.argv[1:] or known
    ok = True
    for workload in workloads:
        code, result = run(workload, corrupt=True)
        caught = code != 0 and result.get("failed", 0) >= 1 and \
            result.get("correct") is False
        print(f"{workload}: corrupted output -> exit {code}, "
              f"failed {result.get('failed')}: "
              f"{'caught' if caught else 'NOT CAUGHT'}")
        code, result = run(workload, corrupt=False)
        clean = code == 0 and result.get("failed") == 0 and \
            result.get("correct") is True
        print(f"{workload}: clean run -> exit {code}, "
              f"failed {result.get('failed')}: "
              f"{'ok' if clean else 'UNEXPECTED'}")
        ok = ok and caught and clean
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
