#!/usr/bin/env python3
"""Compare repo-benchmark runs of a parent commit and a change.

    tools/perf_diff.py --parent batch_ds2=parent_ds2.txt \\
                       --change batch_ds2=change_ds2.txt [...]
    tools/perf_diff.py --selftest

Stdlib only. Each --parent / --change names a workload and a file
holding the output of N runs of `python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0` for it, one after another. Only the JSON
result lines are read (the other lines run.py prints are skipped), in
file order: parent run i is paired with change run i, so run the pairs
on the same seeds and alternate which side goes first.

For every workload and every end_to_end metric of BENCHMARK.json, prints
one markdown table row: both medians with their quartiles, the ratio
change / parent median (the parent median is its base), the pairs the
change won (ties count for neither side), and a verdict:

  gain        the change won at least 9/10 of the pairs, and its median
              is better than the parent's by more than the parent's
              interquartile range;
  regression  the change's median is worse than the parent's by more
              than the metric's bound (relative to the parent median);
  unresolved  either side's spread (interquartile range / median) is
              wider than the bound, unless every change run reads better
              than every parent run;
  flat        none of the above.

A workload whose change runs fail a larger share of their checked
outputs than the parent's gets a `failed` regression row, and none of
its rows counts as a gain. Exits 1 if any row is a regression, 2 on bad
input, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAIN_WIN_SHARE = 0.9


def die(message):
    print(f"perf_diff: {message}", file=sys.stderr)
    sys.exit(2)


def read_results(path):
    """The run.py JSON result lines of one file, in order."""
    results = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                result = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(result, dict) and "metrics" in result:
                results.append(result)
    return results


def quartiles(values):
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median != 0 else float("inf")


def better(a, b, higher):
    """True when value a is strictly better than value b."""
    return a > b if higher else a < b


def failed_share(results):
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    if attempted == 0:
        return 1.0
    return failed / attempted


def metric_row(workload, spec, parent, change, more_failures):
    """One verdict row for one end-to-end metric of one workload."""
    name = spec["name"]
    higher = spec["better"] == "higher"
    bound = float(spec["bound"])
    try:
        p = [float(r["metrics"][name]["value"]) for r in parent]
        c = [float(r["metrics"][name]["value"]) for r in change]
    except KeyError:
        die(f"{workload}: a run lacks metric {name}")
    p_q1, p_med, p_q3 = quartiles(p)
    c_q1, c_med, c_q3 = quartiles(c)
    wins = sum(1 for a, b in zip(c, p) if better(a, b, higher))

    if p_med != 0:
        worse_by = (p_med - c_med) / abs(p_med)
        if not higher:
            worse_by = -worse_by
    else:
        worse_by = 0.0 if c_med == p_med else float("inf")
    all_better = all(better(a, b, higher) for a in c for b in p)

    if (not more_failures and wins >= GAIN_WIN_SHARE * len(p) and
            better(c_med, p_med, higher) and
            abs(c_med - p_med) > p_q3 - p_q1):
        verdict = "gain"
    elif worse_by > bound:
        verdict = "regression"
    elif max(spread(p), spread(c)) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "flat"
    ratio = c_med / p_med if p_med != 0 else float("inf")
    unit = spec.get("unit", "")
    return {
        "workload": workload,
        "metric": name,
        "parent": f"{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}] {unit}",
        "change": f"{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}] {unit}",
        "ratio": f"{ratio:.3f}",
        "wins": f"{wins}/{len(p)}",
        "verdict": verdict,
    }


def diff(benchmark, parent_runs, change_runs):
    """Rows for every workload given on both sides."""
    if set(parent_runs) != set(change_runs):
        die("--parent and --change must name the same workloads")
    known = [w["name"] for w in benchmark["workloads"]]
    rows = []
    for workload in sorted(parent_runs, key=known.index):
        parent = parent_runs[workload]
        change = change_runs[workload]
        if not parent or len(parent) != len(change):
            die(f"{workload}: {len(parent)} parent runs vs {len(change)} "
                "change runs (need equal, non-zero counts)")
        p_failed = failed_share(parent)
        c_failed = failed_share(change)
        more_failures = c_failed > p_failed
        for spec in benchmark["end_to_end"]:
            rows.append(metric_row(workload, spec, parent, change,
                                   more_failures))
        if more_failures:
            rows.append({
                "workload": workload, "metric": "failed share",
                "parent": f"{100 * p_failed:.3g} %",
                "change": f"{100 * c_failed:.3g} %", "ratio": "-",
                "wins": "-", "verdict": "regression"})
    return rows


def render(rows):
    lines = ["| workload | metric | parent median [q1, q3] | "
             "change median [q1, q3] | change / parent median | "
             "pairs won | verdict |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for r in rows:
        lines.append(f"| {r['workload']} | {r['metric']} | {r['parent']} | "
                     f"{r['change']} | {r['ratio']} | {r['wins']} | "
                     f"{r['verdict']} |")
    return "\n".join(lines)


def parse_sides(pairs, side):
    runs = {}
    for pair in pairs or []:
        workload, sep, path = pair.partition("=")
        if not sep or not workload or not path:
            die(f"--{side} expects WORKLOAD=FILE, got {pair!r}")
        if workload in runs:
            die(f"--{side} names {workload} twice")
        runs[workload] = read_results(path)
    return runs


def selftest():
    benchmark = {
        "workloads": [{"name": "a"}, {"name": "b"}],
        "end_to_end": [
            {"name": "rate", "unit": "seq/s", "better": "higher",
             "bound": 0.25},
            {"name": "mem", "unit": "MB", "better": "lower",
             "bound": 0.05},
        ],
    }

    def runs(rates, mems, failed=0):
        return [{"correct": failed == 0, "attempted": 100,
                 "failed": failed,
                 "metrics": {"rate": {"value": r, "unit": "seq/s"},
                             "mem": {"value": m, "unit": "MB"}}}
                for r, m in zip(rates, mems)]

    def verdicts(parent, change):
        rows = diff(benchmark, {"a": parent}, {"a": change})
        return {r["metric"]: r["verdict"] for r in rows}

    base_rates = [24, 25, 26, 27, 28, 24, 25, 26, 27, 28]
    mems = [81.4] * 10
    # Twice as fast in every pair, same memory.
    v = verdicts(runs(base_rates, mems),
                 runs([2 * r for r in base_rates], mems))
    assert v == {"rate": "gain", "mem": "flat"}, v
    # 8/10 pairs won is not enough for a gain.
    faster = [2 * r for r in base_rates]
    faster[0], faster[1] = 1, 1
    v = verdicts(runs(base_rates, mems), runs(faster, mems))
    assert v["rate"] == "flat", v
    # Median 40 % lower: beyond the 0.25 bound.
    v = verdicts(runs(base_rates, mems),
                 runs([0.6 * r for r in base_rates], mems))
    assert v["rate"] == "regression", v
    # Memory 10 % higher on a lower-is-better metric with bound 0.05.
    v = verdicts(runs(base_rates, mems),
                 runs(base_rates, [1.1 * m for m in mems]))
    assert v["mem"] == "regression", v
    # A wide, overlapping spread on an unchanged median.
    noisy = [10, 40, 15, 35, 20, 30, 25, 26, 12, 38]
    v = verdicts(runs(noisy, mems), runs(list(reversed(noisy)), mems))
    assert v["rate"] == "unresolved", v
    # More failures: no gain, and a failed-share regression row.
    rows = diff(benchmark, {"a": runs(base_rates, mems)},
                {"a": runs([2 * r for r in base_rates], mems, failed=1)})
    got = {r["metric"]: r["verdict"] for r in rows}
    assert got["rate"] != "gain" and got["failed share"] == "regression", got
    # Result lines are picked out of run.py's full output.
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
        f.write("== a (seed 1, untraced run) ==\n  rate 24 seq/s\n")
        f.write(json.dumps(runs([24], [81.4])[0]) + "\n")
        f.write("{not json\n")
        path = f.name
    try:
        assert len(read_results(path)) == 1
    finally:
        os.remove(path)
    assert "| a | rate |" in render(diff(benchmark,
                                          {"a": runs(base_rates, mems)},
                                          {"a": runs(base_rates, mems)}))
    print("perf_diff selftest: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--parent", action="append",
                        metavar="WORKLOAD=FILE")
    parser.add_argument("--change", action="append",
                        metavar="WORKLOAD=FILE")
    parser.add_argument("--selftest", action="store_true",
                        help="run the inline fixtures and exit")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return 0
    if not args.parent:
        die("nothing to compare: give --parent and --change")
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    known = {w["name"] for w in benchmark["workloads"]}
    parent_runs = parse_sides(args.parent, "parent")
    change_runs = parse_sides(args.change, "change")
    for workload in list(parent_runs) + list(change_runs):
        if workload not in known:
            die(f"unknown workload {workload!r}")
    rows = diff(benchmark, parent_runs, change_runs)
    print(render(rows))
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
