"""``run.py compare A.json B.json``: did B get worse than A?

Per workload and end-to-end metric: both medians, the relative change (a
positive number is *worse*), the bound, and a verdict —

* ``regression``: B's median is worse than A's by more than the bound;
* ``unresolved``: the run-to-run spread of either side (distance between
  its quartiles over its median) is wider than the bound, so a difference
  of that size cannot be told from noise — unless every run of B reads
  better than every run of A, which is ``ok``;
* ``ok`` otherwise.

``failed_share`` has no bound: any increase is a regression.
"""

from __future__ import annotations

import json
import statistics
from typing import Any

from . import spec


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _worse_by(metric: spec.Metric, a: float, b: float) -> float:
    change = (b - a) / a
    return change if metric.better == "lower" else -change


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[dict[str, Any]], bool]:
    """Rows of the comparison and whether any is a regression."""
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for metric in spec.END_TO_END:
            side_a = a["workloads"][workload]["end_to_end"][metric.name]["values"]
            side_b = b["workloads"][workload]["end_to_end"][metric.name]["values"]
            median_a, median_b = statistics.median(side_a), statistics.median(side_b)
            worse = _worse_by(metric, median_a, median_b)
            noise = max(spread(side_a), spread(side_b))
            if noise > metric.bound:
                all_better = (
                    max(side_b) < min(side_a) if metric.better == "lower"
                    else min(side_b) > max(side_a)
                )
                verdict = "ok" if all_better else "unresolved"
            else:
                verdict = "regression" if worse > metric.bound else "ok"
            rows.append({
                "workload": workload, "metric": metric.name, "unit": metric.unit,
                "a": median_a, "b": median_b, "worse_by": worse,
                "bound": metric.bound, "spread": noise, "verdict": verdict,
            })
        failed_a = statistics.median(a["workloads"][workload]["failed_share"])
        failed_b = statistics.median(b["workloads"][workload]["failed_share"])
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "ratio",
            "a": failed_a, "b": failed_b, "worse_by": failed_b - failed_a,
            "bound": 0.0, "spread": 0.0,
            "verdict": "regression" if failed_b > failed_a else "ok",
        })
    return rows, any(row["verdict"] == "regression" for row in rows)


def main(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    rows, regressed = compare(a, b)
    print(f"A = {path_a}\nB = {path_b}")
    print(
        f"{'workload':<18} {'metric':<18} {'A':>12} {'B':>12} {'unit':<5} "
        f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<18} {row['metric']:<18} {row['a']:>12.4f} "
            f"{row['b']:>12.4f} {row['unit']:<5} {row['worse_by']:>+9.1%} "
            f"{row['bound']:>6.0%} {row['spread']:>7.1%}  {row['verdict']}"
        )
    print("regression" if regressed else "no regression")
    return 1 if regressed else 0
