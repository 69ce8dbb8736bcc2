"""Query-scale benchmark: paged B-trees, cost-based planning, and index
unions vs the seed execution paths.

Times eight agent-shaped query classes at scale (see
:mod:`repro.bench.query_scale` for the measurement harness):

* a selective range filter through a ``USING BTREE`` index slice,
* ``ORDER BY ... LIMIT 10`` through the early-exit ordered index scan,
* a multi-conjunct sequential-scan WHERE through compiled predicates,
* a selective 10-member ``IN`` list through an index union scan,
* incremental B-tree inserts vs the flat-sorted-array algorithm,
* a skewed conjunction where post-``ANALYZE`` cost-based planning beats
  the static preference order,

each against its forced baseline (``db.planner_options`` toggles, a
modelled flat array, or the statistics-free planner), with results
asserted byte-identical between the two plans — plus two classes recorded
as absolute times with no gate (every SELECT runs the one column-batch
pipeline, so they have no baseline to be a ratio of):

* a wide low-selectivity filter with a wide projection,
* a full-table five-aggregate ``GROUP BY``.

Usage::

    PYTHONPATH=src python benchmarks/bench_query_scale.py               # full (100k rows)
    PYTHONPATH=src python benchmarks/bench_query_scale.py --rows 1000000
    PYTHONPATH=src python benchmarks/bench_query_scale.py --smoke       # CI-sized

``REPRO_BENCH_ROWS`` overrides the default row count when ``--rows`` is
not given (both here and in ``python -m repro.bench query``).

Appends the measured result to ``BENCH_query.json`` (override with
``--out``; runs accumulate in a ``history`` list so the perf trajectory
is tracked across PRs, each entry recording its row count). Exits
non-zero if any speedup falls below its acceptance threshold, if the
fast plans stop appearing in EXPLAIN, or if either plan's rows diverge.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench.query_scale import experiment_query_scale
from repro.bench.reporting import record_bench_result, render_query_scale

#: acceptance thresholds per query class (full-size run); smoke runs use
#: laxer floors since tiny tables leave little work to skip
THRESHOLDS = {
    "range": 20.0,
    "topn": 5.0,
    "predicate": 1.5,
    "union": 20.0,
    "btree_write": 4.0,
    "stats_skew": 5.0,
}
SMOKE_THRESHOLDS = {
    "range": 3.0,
    "topn": 1.5,
    "predicate": 1.1,
    "union": 3.0,
    "btree_write": 1.5,
    "stats_skew": 1.5,
}
#: at >= 1M rows the asymptotics dominate: the ISSUE gates tighten
LARGE_THRESHOLDS = dict(THRESHOLDS, btree_write=10.0)
LARGE_ROWS = 1_000_000


def default_rows() -> int:
    env = os.environ.get("REPRO_BENCH_ROWS")
    return int(env) if env else 100_000


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=None,
                        help="rows in the events table "
                             "(default: $REPRO_BENCH_ROWS or 100000)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (10k rows, relaxed thresholds)")
    parser.add_argument("--out", default="BENCH_query.json",
                        help="where to append the JSON result")
    args = parser.parse_args(argv)

    rows = args.rows if args.rows is not None else default_rows()
    if args.smoke:
        rows = min(rows, 10_000)
        thresholds = SMOKE_THRESHOLDS
    elif rows >= LARGE_ROWS:
        thresholds = LARGE_THRESHOLDS
    else:
        thresholds = THRESHOLDS

    result = experiment_query_scale(rows=rows)
    print(render_query_scale(result))

    plans_ok = (
        any("Index Range Scan" in line for line in result["range"]["plan"])
        and any("Ordered Index Scan" in line for line in result["topn"]["plan"])
        and result["planner_stats"]["ordered_scans"] > 0
        and all("Seq Scan" in line for line in result["predicate"]["plan"])
        and any("Index Union Scan" in line for line in result["union"]["plan"])
        and result["planner_stats"]["union_scans"] > 0
        and result["planner_stats"]["batch_scans"] > 0
        # the regression pin for cost-based planning: statically the
        # skewed conjunct picks the 90%-heavy hash probe; with ANALYZE
        # statistics it must switch to the selective range slice
        and any(
            "Index Scan using ix_events_hot" in line
            for line in result["stats_skew"]["static_plan"]
        )
        and any(
            "Index Range Scan using ix_events_val" in line
            for line in result["stats_skew"]["plan"]
        )
        and any("est. rows" in line for line in result["stats_skew"]["plan"])
    )
    failures = [
        name
        for name, floor in thresholds.items()
        if result[name]["speedup"] < floor
    ]
    passed = plans_ok and result["identical"] and not failures

    payload = dict(result, thresholds=thresholds, smoke=args.smoke,
                   passed=passed)
    record_bench_result(args.out, payload)
    print(f"recorded run in {args.out}")

    if not result["identical"]:
        print("FAIL: fast-path and baseline plans returned different rows")
        return 1
    if not plans_ok:
        print("FAIL: EXPLAIN/planner stats no longer show the fast plans")
        return 1
    if failures:
        for name in failures:
            print(f"FAIL: {name} speedup {result[name]['speedup']:.1f}x is "
                  f"below {thresholds[name]:.1f}x")
        return 1
    print("OK: " + ", ".join(
        f"{name} {result[name]['speedup']:,.1f}x (>= {floor:.1f}x)"
        for name, floor in thresholds.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
