"""Query-scale experiment: paged B-trees, cost-based planning, and index
unions vs the seed execution paths.

Run and gated by ``python -m repro.bench query`` (``--rows`` sizes the
table). Builds one wide synthetic table, ``events``, and its unindexed
twin ``events_plain`` (the same rows, no index), and times eight
agent-shaped query classes — five against a baseline, three (the
compiled filter, the wide filter and the GROUP BY fold) as absolute times:
a constant-factor ratio against a slower engine says nothing a tracked
time does not. The index classes' baseline is the same SQL on the twin,
whose only plan is the sequential scan:

* **selective range** — ``WHERE val >= lo AND val < hi`` through a
  ``USING BTREE`` index slice vs the twin's full sequential scan;
* **ordered top-N** — ``ORDER BY val LIMIT k`` through the early-exit
  ordered index scan vs the twin's scan and bounded heap top-N;
* **compiled predicate** — a multi-conjunct seq-scan WHERE through
  batch kernels (absolute ms);
* **index union** — a selective 10-member ``val IN (...)`` served as a
  union of B-tree probes vs the twin's sequential scan;
* **B-tree writes** — incremental ``SortedIndex.insert`` into a loaded
  paged B-tree vs the pre-PR-8 flat-sorted-array algorithm (``insort``
  into one big list), measured on synthetic entries at the same scale;
* **stats vs static planning** — a skewed conjunction where the static
  preference order picks a fully-bound hash probe on a 90%-heavy value
  and the post-``ANALYZE`` cost model switches to the ~50-row range
  slice instead;
* **batch filter** — a low-selectivity multi-conjunct seq-scan filter
  with a wide projection (absolute ms);
* **batch aggregate** — a full-table ``GROUP BY`` folding five
  aggregates over column slices (absolute ms).

Every timed pair also asserts byte-identical results, and the returned
payload records the EXPLAIN plans of both sides so :func:`check_query_scale`
can verify the fast paths were planned and the twin was scanned.
"""

from __future__ import annotations

import time
from bisect import insort
from typing import Any

from repro.minidb import Database
from repro.minidb.database import Session
from repro.minidb.storage import SortedIndex, ordering_key

from .gates import expect, failed
from .join_scale import time_query

TOPN_SQL = "SELECT id, val FROM events ORDER BY val LIMIT 10"
PREDICATE_SQL = (
    "SELECT COUNT(*) FROM events WHERE grp >= 10 AND grp < 90 "
    "AND flag = 1 AND name LIKE 'n1%'"
)
BATCH_FILTER_SQL = (
    "SELECT id, val, name FROM events "
    "WHERE grp >= 10 AND grp < 90 AND flag = 1"
)
BATCH_AGGREGATE_SQL = (
    "SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val), AVG(flag) "
    "FROM events GROUP BY grp"
)

#: IN-list width of the index-union query class
UNION_MEMBERS = 10

#: the ``db.planner_stats`` counters recorded with a run
PLANNER_STAT_KEYS = (
    "range_scans", "ordered_scans", "topn_limits", "index_scans", "union_scans",
    "seq_scans", "batch_scans",
)


def range_sql(rows: int) -> str:
    """A ~50-row slice of the permuted val column, at any table size."""
    low = rows // 25
    return (
        f"SELECT COUNT(*) FROM events WHERE val >= {low} AND val < {low + 50}"
    )


def union_sql(rows: int) -> str:
    """A 10-member IN over ``val`` — one matching row per member."""
    members = ", ".join(
        str((i * rows) // UNION_MEMBERS + 3) for i in range(UNION_MEMBERS)
    )
    return f"SELECT COUNT(*) FROM events WHERE val IN ({members})"


def skew_sql(rows: int) -> str:
    """Skewed conjunction: ``hot = 0`` covers 90% of the table while the
    ``val`` range keeps ~50 rows — the probe choice decides the cost."""
    low = rows // 3
    return (
        f"SELECT COUNT(*) FROM events WHERE hot = 0 "
        f"AND val >= {low} AND val < {low + 50}"
    )

#: the query classes timed against the unindexed twin, and its name
TWIN_CLASSES = ("range", "topn", "union")
TWIN = "events_plain"


def build_session(rows: int) -> Session:
    """A fresh database with one ``rows``-sized indexed events table and
    its unindexed twin."""
    db = Database(owner="bench")
    session = db.connect("bench")
    columns = "grp INT, val INT, flag INT, name TEXT, hot INT"
    session.execute(f"CREATE TABLE events (id INT PRIMARY KEY, {columns})")
    session.execute(f"CREATE TABLE {TWIN} (id INT, {columns})")
    heap, twin = db.heap("events"), db.heap(TWIN)
    for i in range(rows):
        row = {
            "id": i,
            "grp": i % 100,
            "val": (i * 7919) % rows,  # full-period permutation of 0..rows
            "flag": i % 2,
            "name": f"n{i % 1000}",
            # 90% of rows share hot=0; the rest are distinct
            "hot": i if i % 10 == 0 else 0,
        }
        heap.insert(row)
        twin.insert(row)
    # the ordered index arrives after the data: one bulk-sorted backfill
    session.execute("CREATE INDEX ix_events_val ON events USING BTREE (val)")
    session.execute("CREATE INDEX ix_events_hot ON events (hot)")
    return session


def _explain(session: Session, sql: str) -> list[str]:
    return [line for (line,) in session.execute(f"EXPLAIN {sql}").rows]


def _measure(
    session: Session, name: str, sql: str, repeats: int
) -> dict[str, Any]:
    plan = _explain(session, sql)
    fast_s, fast_rows = time_query(session, sql, repeats)
    if name not in TWIN_CLASSES:  # tracked as an absolute time only
        return {"sql": sql, "plan": plan, "fast_ms": fast_s * 1000}
    twin_sql = sql.replace("FROM events", f"FROM {TWIN}")
    base_s, base_rows = time_query(session, twin_sql, max(1, repeats - 1))
    return {
        "sql": sql,
        "plan": plan,
        "baseline_plan": _explain(session, twin_sql),
        "fast_ms": fast_s * 1000,
        "baseline_ms": base_s * 1000,
        "speedup": (base_s / fast_s) if fast_s > 0 else float("inf"),
        "identical": fast_rows == base_rows,
    }


def _measure_btree_write(entries: int, inserts: int) -> dict[str, Any]:
    """Incremental insert cost: paged B-tree vs the flat-sorted-array
    algorithm the B-tree replaced (``insort`` into one list).

    Both sides start pre-loaded with ``entries`` sorted keys and absorb
    ``inserts`` interleaved new keys. The flat model times exactly the
    data movement the old ``SortedIndex.insert`` paid per mutation.
    """
    flat = [(ordering_key((i * 2 + 1,)), i) for i in range(entries)]
    index = SortedIndex("bench_ix", ("val",), unique=False)
    index.bulk_load((i, {"val": i * 2 + 1}) for i in range(entries))
    new_rows = [
        (entries + j, {"val": (j * 7919) % (entries * 2)})
        for j in range(inserts)
    ]

    start = time.perf_counter()
    for rid, row in new_rows:
        index.insert(rid, row, "events")
    btree_s = time.perf_counter() - start

    start = time.perf_counter()
    for rid, row in new_rows:
        insort(flat, (ordering_key((row["val"],)), rid))
    flat_s = time.perf_counter() - start

    assert len(index) == entries + inserts
    return {
        "entries": entries,
        "inserts": inserts,
        "fast_ms": btree_s * 1000,
        "baseline_ms": flat_s * 1000,
        "speedup": (flat_s / btree_s) if btree_s > 0 else float("inf"),
        "identical": True,  # structural: same entries on both sides
    }


def _measure_stats_skew(
    session: Session, sql: str, repeats: int
) -> dict[str, Any]:
    """The same skewed query planned statically (no statistics) and then
    cost-based (after ``ANALYZE``). Must run after every other class —
    the collected statistics stay on the catalog.
    """
    explain = lambda: [  # noqa: E731
        line for (line,) in session.execute(f"EXPLAIN {sql}").rows
    ]
    static_plan = explain()
    static_s, static_rows = time_query(session, sql, repeats)
    session.execute("ANALYZE events")
    stats_plan = explain()
    stats_s, stats_rows = time_query(session, sql, repeats)
    return {
        "sql": sql,
        "plan": stats_plan,
        "static_plan": static_plan,
        "fast_ms": stats_s * 1000,
        "baseline_ms": static_s * 1000,
        "speedup": (static_s / stats_s) if stats_s > 0 else float("inf"),
        "identical": static_rows == stats_rows,
    }


def experiment_query_scale(rows: int = 100_000, repeats: int = 3) -> dict[str, Any]:
    """Measure the eight query classes; returns one payload per class."""
    session = build_session(rows)
    result: dict[str, Any] = {"rows": rows}
    for name, sql in (
        ("range", range_sql(rows)),
        ("topn", TOPN_SQL),
        ("predicate", PREDICATE_SQL),
        ("union", union_sql(rows)),
        ("batch_filter", BATCH_FILTER_SQL),
        ("batch_aggregate", BATCH_AGGREGATE_SQL),
    ):
        result[name] = _measure(session, name, sql, repeats)
    # synthetic-entry write bench: small tables leave the flat array's
    # O(n) memmove too cheap to measure, so keep a meaningful floor
    entries = max(rows, 200_000)
    result["btree_write"] = _measure_btree_write(
        entries, inserts=max(500, min(5_000, entries // 200))
    )
    # last: ANALYZE leaves statistics on the catalog
    result["stats_skew"] = _measure_stats_skew(session, skew_sql(rows), repeats)
    result["identical"] = all(
        measured["identical"]
        for measured in result.values()
        if isinstance(measured, dict) and "identical" in measured
    )
    stats = session.db.planner_stats
    result["planner_stats"] = {key: stats[key] for key in PLANNER_STAT_KEYS}
    return result


#: speedup floors per query class: (full size, smoke). Tiny tables leave
#: little work to skip, so smoke runs use laxer ones
SPEEDUP_FLOORS = {
    "range": (20.0, 3.0),
    "topn": (5.0, 1.5),
    "union": (20.0, 3.0),
    "btree_write": (4.0, 1.5),
    "stats_skew": (5.0, 1.5),
}
#: at >= 1M rows the asymptotics dominate and the B-tree floor tightens
LARGE_ROWS = 1_000_000
LARGE_BTREE_WRITE_FLOOR = 10.0


#: (query class, which plan, the node EXPLAIN must show). The stats_skew
#: rows are the regression pin for cost-based planning: statically the
#: skewed conjunct picks the 90%-heavy hash probe; with ANALYZE statistics
#: it must switch to the selective range slice, with estimates printed
PLAN_PINS = (
    ("range", "plan", "Index Range Scan"),
    ("topn", "plan", "Ordered Index Scan"),
    ("union", "plan", "Index Union Scan"),
    *((name, "baseline_plan", f"Seq Scan on {TWIN}") for name in TWIN_CLASSES),
    ("stats_skew", "static_plan", "Index Scan using ix_events_hot"),
    ("stats_skew", "plan", "Index Range Scan using ix_events_val"),
    ("stats_skew", "plan", "est. rows"),
)


def check_query_scale(result: dict[str, Any], smoke: bool) -> list[str]:
    """The gate: identical rows, the fast and twin plans in EXPLAIN, five
    floors."""
    floors = {name: pair[smoke] for name, pair in SPEEDUP_FLOORS.items()}
    if not smoke and result["rows"] >= LARGE_ROWS:
        floors["btree_write"] = LARGE_BTREE_WRITE_FLOOR
    return failed(
        [
            (result["identical"],
             "fast-path and baseline plans returned different rows"),
            (all("Seq Scan" in line for line in result["predicate"]["plan"]),
             "predicate plan is no longer a plain Seq Scan"),
        ]
        + [
            (any(node in line for line in result[name][plan]),
             f"{name} {plan} no longer shows {node!r}")
            for name, plan, node in PLAN_PINS
        ]
        + [
            expect(f"planner_stats[{key!r}]", result["planner_stats"][key], ">", 0)
            for key in ("ordered_scans", "union_scans", "batch_scans")
        ]
        + [
            expect(f"{name} speedup", result[name]["speedup"], ">=", floor)
            for name, floor in floors.items()
        ]
    )
