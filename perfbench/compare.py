"""Compare two benchmark reports, one row per (workload, metric).

    python3 perfbench/run.py --workload all --repeats 10 --out parent.json
    python3 perfbench/run.py --workload all --repeats 10 --out change.json
    python3 perfbench/compare.py parent.json change.json

For every end-to-end metric of ``BENCHMARK.json`` on every workload both
reports hold, the verdict is the first that applies:

* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound (a share of the parent's median) and by
  more than the parent's interquartile range;
* ``unresolved`` — either side's interquartile range, as a share of its
  median, is wider than the bound, unless every change sample is better
  than every parent sample;
* ``improvement`` — the change wins at least nine tenths of the sample
  pairs (ties count for neither; at least ten pairs) and the medians
  differ by more than the parent's interquartile range;
* ``unchanged`` — otherwise.

Exits 1 when any row is a regression, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import load_spec, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], bound: float,
            better: str) -> str:
    """The verdict for one metric's parent and change samples."""
    def gain(old: float, new: float) -> float:
        """How much better ``new`` is than ``old`` (negative: worse)."""
        return old - new if better == "lower" else new - old

    p1, parent_median, p3 = quartiles(parent)
    c1, change_median, c3 = quartiles(change)
    parent_iqr = p3 - p1
    change_gain = gain(parent_median, change_median)
    if -change_gain > bound * abs(parent_median) and -change_gain > parent_iqr:
        return "regression"
    spread = max(parent_iqr / abs(parent_median),
                 (c3 - c1) / abs(change_median))
    all_better = all(gain(p, c) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(gain(p, c) > 0 for p, c in pairs)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) \
            and change_gain > parent_iqr:
        return "improvement"
    return "unchanged"


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present in both reports."""
    rows = []
    for workload, old in parent["workloads"].items():
        new = change["workloads"].get(workload)
        if new is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before = [sample[name] for sample in old["samples"]]
            after = [sample[name] for sample in new["samples"]]
            rows.append({
                "workload": workload, "metric": name,
                "unit": metric["unit"],
                "parent": quartiles(before), "change": quartiles(after),
                "verdict": verdict(before, after, metric["bound"],
                                   metric["better"])})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compare two reports")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rows = compare(json.loads(args.parent.read_text()),
                   json.loads(args.change.read_text()), load_spec())
    for row in rows:
        p1, pm, p3 = row["parent"]
        c1, cm, c3 = row["change"]
        delta = 100.0 * (cm - pm) / pm if pm else float("nan")
        print(f"{row['workload']:<16} {row['metric']:<13} "
              f"{pm:10.4f} [{p1:.4f}, {p3:.4f}] -> "
              f"{cm:10.4f} [{c1:.4f}, {c3:.4f}] {row['unit']:<3} "
              f"{delta:+7.2f}%  {row['verdict']}")
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
