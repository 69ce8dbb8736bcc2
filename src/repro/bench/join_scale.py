"""Join-scale experiment: minidb hash joins vs the nested-loop baseline.

Run and gated by ``python -m repro.bench joins``. Builds a synthetic ``orders`` /
``customers`` pair and times an agent-shaped equi-join under both join
strategies. The nested-loop side (the seed executor's only strategy) is the
same join with its key spelled ``ON NOT (o.customer_id <> c.id)``: the same
truth value on every row, but no equi-key for the planner to hash. It can be
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

from .gates import expect, failed

#: hash join over the nested loop, at full and at smoke size alike
SPEEDUP_FLOOR = 20.0

JOIN_SQL = (
    "SELECT COUNT(*) FROM orders o JOIN customers c ON o.customer_id = c.id"
)
#: the same join with its key out of the planner's reach: a nested loop
NESTED_LOOP_SQL = (
    "SELECT COUNT(*) FROM orders o JOIN customers c "
    "ON NOT (o.customer_id <> c.id)"
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


def experiment_join_scale(
    rows: int = 10_000, nl_rows: int = 1_000
) -> dict[str, Any]:
    """Measure both strategies; nested loop extrapolated from ``nl_rows``."""
    nl_rows = min(nl_rows, rows)
    session = build_session(rows)
    plan = [line for (line,) in session.execute(f"EXPLAIN {JOIN_SQL}").rows]
    matches = session.execute(JOIN_SQL).scalar()
    hash_seconds, _ = time_query(session, JOIN_SQL)
    join_group_seconds, _ = time_query(session, JOIN_GROUP_SQL)

    nl_session = session if nl_rows == rows else build_session(nl_rows)
    nl_plan = [
        line for (line,) in nl_session.execute(f"EXPLAIN {NESTED_LOOP_SQL}").rows
    ]
    nl_measured, _ = time_query(nl_session, NESTED_LOOP_SQL, repeats=1)
    scale = (rows / nl_rows) ** 2
    nl_seconds = nl_measured * scale

    return {
        "rows": rows,
        "nl_rows": nl_rows,
        "matches": matches,
        "plan": plan,
        "nl_plan": nl_plan,
        "hash_ms": hash_seconds * 1000,
        "join_group_ms": join_group_seconds * 1000,
        "nl_ms": nl_seconds * 1000,
        "nl_extrapolated": scale != 1,
        "speedup": (nl_seconds / hash_seconds) if hash_seconds > 0 else float("inf"),
    }


def check_join_scale(result: dict[str, Any], smoke: bool) -> list[str]:
    """The gate: a hash join is planned, the baseline is a nested loop,
    and the hash join beats it 20x."""
    return failed(
        [
            (any("Hash Join" in line for line in result["plan"]),
             "EXPLAIN does not report a hash join for the equi-join"),
            (any("Nested Loop Join" in line for line in result["nl_plan"]),
             "EXPLAIN does not report a nested loop for the baseline"),
            expect("speedup", result["speedup"], ">=", SPEEDUP_FLOOR),
        ]
    )
