#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent commit and a change.

Usage::

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are ``results.jsonl`` files (or directories holding one)
written by ``perfbench/run.py``.  Untraced runs are paired per workload in
the order they were made, so make them alternately: parent, change, change,
parent, ...  Each (workload, end-to-end metric) gets one verdict:

* ``improved``   the change wins at least 9 of 10 pairs (ties count for
                 neither side) and the medians differ by more than the
                 parent's interquartile range;
* ``worse``      the change's median is worse than the parent's by more
                 than the metric's bound in BENCHMARK.json;
* ``unresolved`` either side's spread (IQR / median) is wider than the bound,
                 and not every change run beats every parent run;
* ``unchanged``  otherwise.

A gain does not count with fewer than 10 pairs, or when the change fails
more operations than the parent; such a row is reported ``unresolved``.
Result digests are compared per (workload, seed): equal digests mean
bit-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load(path: str) -> list[dict]:
    p = Path(path)
    if p.is_dir():
        p = p / "results.jsonl"
    with open(p) as buf:
        return [rec for rec in map(json.loads, filter(str.strip, buf)) if rec["trace"] == 0]


def spread(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            more_failures: bool) -> tuple[str, dict]:
    sign = 1.0 if better == "lower" else -1.0  # sign * (x - y) < 0: x is better
    n = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pq1, pmed, pq3 = spread(parent)
    cq1, cmed, cq3 = spread(change)
    iqr = pq3 - pq1
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    worse_by = sign * (cmed - pmed) / pmed
    wide = max(iqr / pmed, (cq3 - cq1) / cmed) > bound
    if wins >= 0.9 * n and abs(cmed - pmed) > iqr and sign * (cmed - pmed) < 0:
        result = "unresolved" if more_failures or n < MIN_PAIRS else "improved"
    elif worse_by > bound:
        result = "worse"
    elif wide and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return result, {"pairs": n, "wins": wins,
                    "parent": [pq1, pmed, pq3], "change": [cq1, cmed, cq3],
                    "change_vs_parent": sign * worse_by}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)

    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        if not p_runs or not c_runs:
            continue
        n = min(len(p_runs), len(c_runs))
        if n < MIN_PAIRS:
            print(f"note: {workload} has {n} pairs; a gain needs at least {MIN_PAIRS}",
                  file=sys.stderr)
        p_fail = sum(r["failed"] for r in p_runs[:n])
        c_fail = sum(r["failed"] for r in c_runs[:n])
        p_digest = {r["seed"]: r["digest"] for r in p_runs}
        same = [r["digest"] == p_digest[r["seed"]] for r in c_runs if r["seed"] in p_digest]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            result, detail = verdict(
                [r["end_to_end"][name] for r in p_runs[:n]],
                [r["end_to_end"][name] for r in c_runs[:n]],
                metric["better"], metric["bound"], c_fail > p_fail)
            rows.append({"workload": workload, "metric": name, "verdict": result,
                         "failed": [p_fail, c_fail], "digests_equal": [sum(same), len(same)],
                         **detail})

    print(f"{'workload':<10} {'metric':<12} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'wins':>7} {'change':>8}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"{r['workload']:<10} {r['metric']:<12} "
              f"{p[1]:>10.4g} [{p[0]:.4g}, {p[2]:.4g}]".ljust(54)
              + f"{c[1]:>10.4g} [{c[0]:.4g}, {c[2]:.4g}]".ljust(31)
              + f"{r['wins']:>3}/{r['pairs']:<3} {100 * r['change_vs_parent']:+7.1f}%  "
              f"{r['verdict']}")
    for workload in dict.fromkeys(r["workload"] for r in rows):
        r = next(x for x in rows if x["workload"] == workload)
        print(f"{workload}: failed ops parent {r['failed'][0]}, change {r['failed'][1]}; "
              f"digests equal on {r['digests_equal'][0]} of {r['digests_equal'][1]} seeds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
