"""Join-scale experiment: minidb hash joins vs the nested-loop baseline.

Shared by ``benchmarks/bench_join_scale.py`` (acceptance benchmark) and the
``python -m repro.bench joins`` CLI. Builds a synthetic ``orders`` /
``customers`` pair and times an agent-shaped equi-join under both join
strategies; the nested-loop side (the seed executor's only strategy,
reachable via ``db.planner_options["enable_hash_join"] = False``) can be
measured at a smaller row count and extrapolated quadratically, since at
production row counts it is too slow to run at all. A hash join feeding a
``GROUP BY`` is timed alongside as an absolute figure: it is the agent
workloads' join shape, and has no baseline to be a ratio of.
"""

from __future__ import annotations

import time
from typing import Any

from repro.minidb import Database
from repro.minidb.database import Session

JOIN_SQL = (
    "SELECT COUNT(*) FROM orders o JOIN customers c ON o.customer_id = c.id"
)
JOIN_GROUP_SQL = (
    "SELECT c.region, COUNT(*), SUM(o.amount) FROM orders o "
    "JOIN customers c ON o.customer_id = c.id GROUP BY c.region"
)


def build_session(rows: int) -> Session:
    """A fresh database with two ``rows``-sized tables joined by FK shape."""
    db = Database(owner="bench")
    session = db.connect("bench")
    session.execute("CREATE TABLE customers (id INT PRIMARY KEY, region TEXT)")
    session.execute(
        "CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, amount FLOAT)"
    )
    customers = db.heap("customers")
    orders = db.heap("orders")
    regions = ("north", "south", "east", "west")
    for i in range(rows):
        customers.insert({"id": i, "region": regions[i % 4]})
    for i in range(rows):
        orders.insert(
            {"id": i, "customer_id": (i * 7919) % rows, "amount": float(i % 100)}
        )
    return session


def time_join(session: Session, repeats: int = 3, sql: str = JOIN_SQL) -> float:
    """Best-of-``repeats`` wall time of a benchmark join, in seconds."""
    best = float("inf")
    expected = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = session.execute(sql).rows
        best = min(best, time.perf_counter() - start)
        if expected is None:
            expected = result
        assert result == expected
    return best


def experiment_join_scale(
    rows: int = 10_000, nl_rows: int = 1_000
) -> dict[str, Any]:
    """Measure both strategies; nested loop extrapolated from ``nl_rows``."""
    nl_rows = min(nl_rows, rows)
    session = build_session(rows)
    plan = [line for (line,) in session.execute(f"EXPLAIN {JOIN_SQL}").rows]
    matches = session.execute(JOIN_SQL).scalar()
    hash_seconds = time_join(session)
    join_group_seconds = time_join(session, sql=JOIN_GROUP_SQL)

    nl_session = session if nl_rows == rows else build_session(nl_rows)
    nl_session.db.planner_options["enable_hash_join"] = False
    nl_measured = time_join(nl_session, repeats=1)
    nl_session.db.planner_options["enable_hash_join"] = True
    scale = (rows / nl_rows) ** 2
    nl_seconds = nl_measured * scale

    return {
        "rows": rows,
        "nl_rows": nl_rows,
        "matches": matches,
        "plan": plan,
        "hash_ms": hash_seconds * 1000,
        "join_group_ms": join_group_seconds * 1000,
        "nl_ms": nl_seconds * 1000,
        "nl_extrapolated": scale != 1,
        "speedup": (nl_seconds / hash_seconds) if hash_seconds > 0 else float("inf"),
    }
