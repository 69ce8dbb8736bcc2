"""Query-scale experiment: paged B-trees, cost-based planning, index
unions and hash joins vs the seed execution paths.

Run and gated by ``python -m repro.bench query`` (``--rows`` sizes the
events table). Builds one wide synthetic table, ``events``, and its
unindexed twin ``events_plain`` (the same rows, no index), plus an
``orders`` / ``customers`` pair, and times eleven agent-shaped query
classes — seven against a baseline, four (the compiled filter, the wide
filter, the GROUP BY fold and the join + GROUP BY) as absolute times: a
constant-factor ratio against a slower engine says nothing a tracked time
does not. The index classes' baseline is the same SQL on the twin, whose
only plan is the sequential scan:

* **selective range** — ``WHERE val >= lo AND val < hi`` through a
  ``USING BTREE`` index slice vs the twin's full sequential scan;
* **ordered top-N** — ``ORDER BY val LIMIT k`` through the early-exit
  ordered index scan vs the twin's scan and bounded heap top-N;
* **compiled predicate** — a multi-conjunct seq-scan WHERE through
  batch kernels (absolute ms);
* **index union** — a selective 10-member ``val IN (...)`` served as a
  union of B-tree probes vs the twin's sequential scan;
* **point lookup** — ``WHERE id = k`` through the primary-key index vs
  the twin's sequential scan;
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
  aggregates over column slices (absolute ms);
* **equi-join** — ``orders JOIN customers`` as a hash join vs the same
  join with its key spelled ``ON NOT (o.customer_id <> c.id)``: the same
  truth value on every row, but no equi-key for the planner to hash, so a
  nested loop (the seed executor's only strategy). Too slow to run at
  production row counts, the nested loop is measured on ``nl_rows``-sized
  tables and extrapolated quadratically;
* **join + GROUP BY** — the agent workloads' join shape, a hash join
  feeding a ``GROUP BY`` (absolute ms).

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

_JOIN = "SELECT COUNT(*) FROM orders o JOIN customers c ON "
JOIN_SQL = _JOIN + "o.customer_id = c.id"
#: the same join with its key out of the planner's reach: a nested loop
NESTED_LOOP_SQL = _JOIN + "NOT (o.customer_id <> c.id)"
JOIN_GROUP_SQL = (
    "SELECT c.region, COUNT(*), SUM(o.amount) FROM orders o "
    "JOIN customers c ON o.customer_id = c.id GROUP BY c.region"
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


def point_sql(rows: int) -> str:
    """The last primary key: a seq scan reads every row to find it."""
    return f"SELECT id FROM events WHERE id = {rows - 1}"


def skew_sql(rows: int) -> str:
    """Skewed conjunction: ``hot = 0`` covers 90% of the table while the
    ``val`` range keeps ~50 rows — the probe choice decides the cost."""
    low = rows // 3
    return (
        f"SELECT COUNT(*) FROM events WHERE hot = 0 "
        f"AND val >= {low} AND val < {low + 50}"
    )

#: the query classes timed against the unindexed twin, and its name
TWIN_CLASSES = ("range", "topn", "union", "point")
TWIN = "events_plain"


def join_tables(rows: int, session: Session | None = None) -> Session:
    """``customers`` and ``orders``, ``rows`` each, joined by FK shape, in
    ``session``'s database (a fresh one if None)."""
    session = session or Database(owner="bench").connect("bench")
    session.execute("CREATE TABLE customers (id INT PRIMARY KEY, region TEXT)")
    session.execute(
        "CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, amount FLOAT)"
    )
    customers, orders = session.db.heap("customers"), session.db.heap("orders")
    regions = ("north", "south", "east", "west")
    for i in range(rows):
        customers.insert({"id": i, "region": regions[i % 4]})
        orders.insert(
            {"id": i, "customer_id": (i * 7919) % rows, "amount": float(i % 100)}
        )
    return session


def build_session(rows: int, join_rows: int) -> Session:
    """A fresh database with one ``rows``-sized indexed events table, its
    unindexed twin, and the ``join_rows``-sized join pair."""
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
    return join_tables(join_rows, session)


def time_query(session: Session, sql: str, repeats: int = 3) -> tuple[float, list]:
    """Best-of-``repeats`` wall seconds of ``sql``, plus its (stable) rows."""
    best = float("inf")
    expected = None
    for _ in range(repeats):
        start = time.perf_counter()
        rows = session.execute(sql).rows
        best = min(best, time.perf_counter() - start)
        if expected is None:
            expected = rows
        assert rows == expected
    return best, expected


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


def _measure_join(
    session: Session, nl_session: Session, scale: float, repeats: int
) -> dict[str, Any]:
    """The hash join vs the nested loop, which runs once on ``nl_session``
    and is scaled by ``scale``; both strategies must agree there."""
    fast_s, fast_rows = time_query(session, JOIN_SQL, repeats)
    nl_s, nl_rows = time_query(nl_session, NESTED_LOOP_SQL, repeats=1)
    return {
        "sql": JOIN_SQL,
        "plan": _explain(session, JOIN_SQL),
        "baseline_plan": _explain(nl_session, NESTED_LOOP_SQL),
        "matches": fast_rows[0][0],
        "fast_ms": fast_s * 1000,
        "baseline_ms": nl_s * scale * 1000,
        "speedup": (nl_s * scale / fast_s) if fast_s > 0 else float("inf"),
        "identical": nl_rows == nl_session.execute(JOIN_SQL).rows,
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
    static_plan = _explain(session, sql)
    static_s, static_rows = time_query(session, sql, repeats)
    session.execute("ANALYZE events")
    stats_plan = _explain(session, sql)
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


def experiment_query_scale(
    rows: int = 100_000,
    join_rows: int = 10_000,
    nl_rows: int = 1_000,
    repeats: int = 3,
) -> dict[str, Any]:
    """Measure the eleven query classes; returns one payload per class.
    The nested loop is measured at ``nl_rows`` and extrapolated."""
    nl_rows = min(nl_rows, join_rows)
    session = build_session(rows, join_rows)
    result: dict[str, Any] = {"rows": rows, "join_rows": join_rows, "nl_rows": nl_rows}
    for name, sql in (
        ("range", range_sql(rows)),
        ("topn", TOPN_SQL),
        ("predicate", PREDICATE_SQL),
        ("union", union_sql(rows)),
        ("point", point_sql(rows)),
        ("batch_filter", BATCH_FILTER_SQL),
        ("batch_aggregate", BATCH_AGGREGATE_SQL),
        ("join_group", JOIN_GROUP_SQL),
    ):
        result[name] = _measure(session, name, sql, repeats)
    result["point"]["found"] = session.execute(point_sql(rows)).rows == [(rows - 1,)]
    nl_session = join_tables(nl_rows) if nl_rows < join_rows else session
    result["join"] = _measure_join(
        session, nl_session, (join_rows / nl_rows) ** 2, repeats
    )
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
    "join": (20.0, 20.0),
    "btree_write": (4.0, 1.5),
    "stats_skew": (5.0, 1.5),
}
#: at >= 1M rows the asymptotics dominate and the B-tree floor tightens
LARGE_ROWS = 1_000_000
LARGE_BTREE_WRITE_FLOOR = 10.0
#: the point lookup must beat the twin's scan by more than this, at any size
POINT_FLOOR = 5.0


#: (query class, which plan, the node EXPLAIN must show). The stats_skew
#: rows are the regression pin for cost-based planning: statically the
#: skewed conjunct picks the 90%-heavy hash probe; with ANALYZE statistics
#: it must switch to the selective range slice, with estimates printed
PLAN_PINS = (
    ("range", "plan", "Index Range Scan"),
    ("topn", "plan", "Ordered Index Scan"),
    ("union", "plan", "Index Union Scan"),
    ("point", "plan", "Index Scan using pk_events"),
    *((name, "baseline_plan", f"Seq Scan on {TWIN}") for name in TWIN_CLASSES),
    ("stats_skew", "static_plan", "Index Scan using ix_events_hot"),
    ("stats_skew", "plan", "Index Range Scan using ix_events_val"),
    ("stats_skew", "plan", "est. rows"),
)


def check_query_scale(result: dict[str, Any], smoke: bool) -> list[str]:
    """The gate: identical rows, the fast, twin and join plans in EXPLAIN,
    seven floors."""
    floors = {name: pair[smoke] for name, pair in SPEEDUP_FLOORS.items()}
    if not smoke and result["rows"] >= LARGE_ROWS:
        floors["btree_write"] = LARGE_BTREE_WRITE_FLOOR
    return failed(
        [
            (result["identical"],
             "fast-path and baseline plans returned different rows"),
            (all("Seq Scan" in line for line in result["predicate"]["plan"]),
             "predicate plan is no longer a plain Seq Scan"),
            (result["point"]["found"], "index point lookup returned the wrong row"),
            (any("Hash Join" in line for line in result["join"]["plan"]),
             "EXPLAIN does not report a hash join for the equi-join"),
            (any("Nested Loop Join" in line
                 for line in result["join"]["baseline_plan"]),
             "EXPLAIN does not report a nested loop for the baseline"),
            expect("index point-lookup speedup", result["point"]["speedup"], ">",
                   POINT_FLOOR),
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
