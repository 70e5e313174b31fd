#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perf/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``perf/run.py --out FILE`` appends, one
JSON object per workload run (run it with several seeds, both sides
with the same ones).  For every workload and end-to-end metric this
prints each side's median and interquartile range and a verdict:

* ``regressed``  the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` either side's spread (IQR / median) exceeds the bound,
  so the medians cannot be told apart, unless every run of the change
  reads better than every run of the parent;
* ``ok``         otherwise.

Exits 1 when any row regressed.  Traced records are ignored.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``{(workload, metric): [value per run]}`` of the untraced runs."""
    runs: Dict[Tuple[str, str], List[float]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            for name, metric in record["metrics"].items():
                runs.setdefault((record["workload"], name), []).append(metric["value"])
    return runs


def summarize(values: List[float]) -> Tuple[float, float]:
    """Median and interquartile range."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    parent_median, parent_iqr = summarize(parent)
    change_median, change_iqr = summarize(change)
    spread = max(
        parent_iqr / abs(parent_median) if parent_median else 0.0,
        change_iqr / abs(change_median) if change_median else 0.0,
    )
    if spread > bound:
        all_better = all(sign * c < sign * p for c in change for p in parent)
        return "ok" if all_better else "unresolved"
    worse = sign * (change_median - parent_median) / abs(parent_median) if parent_median else 0.0
    return "regressed" if worse > bound else "ok"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parent, change = (load_runs(path) for path in argv)
    header = (f"{'workload':18s} {'metric':16s} {'parent median':>14s} {'IQR':>10s} "
              f"{'change median':>14s} {'IQR':>10s} {'delta':>8s}  verdict")
    print(header)
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in parent or key not in change:
                continue
            p_median, p_iqr = summarize(parent[key])
            c_median, c_iqr = summarize(change[key])
            delta = (c_median - p_median) / p_median if p_median else 0.0
            result = verdict(parent[key], change[key], metric["better"], metric["bound"])
            regressed |= result == "regressed"
            print(f"{workload:18s} {metric['name']:16s} {p_median:14.6g} {p_iqr:10.3g} "
                  f"{c_median:14.6g} {c_iqr:10.3g} {delta:+8.1%}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
