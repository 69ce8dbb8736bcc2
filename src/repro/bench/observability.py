"""Observability overhead + feature benchmark (PR 9).

Two questions:

1. **Zero-cost-when-dark** — with every ``observability_options`` switch at
   its default, how much slower is the tier-1 statement hot path than a
   build with no observability dispatch at all? The baseline replicates the
   pre-PR ``Session.execute`` body (append to the statement log, parse,
   execute) so the measured delta is exactly the dark-mode dispatch: one
   options-dict read plus the thread-local tracer probes the inner hooks
   perform. Gated at ≤ 5% (the PR-7 seam-overhead pattern).
2. **Cost when lit** — the same workload with tracing enabled (ring buffer
   recording, span construction, scan events), reported but not gated.

Variants are interleaved, rotated, and best-of-``repeats`` CPU time
(:func:`repro.bench.gates.best_cpu_seconds`).
"""

from __future__ import annotations

from typing import Any, Callable

from ..minidb import Database
from ..minidb.parser import parse
from .gates import best_cpu_seconds, expect, failed, remeasure_until_under

#: ceiling on the dark statement path's cost over no dispatch at all
DARK_OVERHEAD_PCT = 5.0
#: what the lit-up feature probe must find at least, per surface
FEATURE_FLOORS = {
    "system_statements_rows": 1, "system_metrics_rows": 1, "slow_entries": 1,
    "explain_analyze_lines": 3, "spans_last_statement": 1,
}


def _build_db(rows: int, tracing: bool = False) -> tuple[Database, Any]:
    db = Database(owner="admin")
    session = db.connect("admin")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, name TEXT)")
    session.execute("CREATE INDEX ix_t_v ON t USING BTREE (v)")
    for n in range(rows):
        session.execute(f"INSERT INTO t VALUES ({n}, {n % 50}, 'name{n}')")
    if tracing:
        db.observability_options["tracing"] = True
    return db, session


def _plain_execute(session: Any, sql: str) -> Any:
    """The pre-observability ``Session.execute`` body: the no-dispatch
    baseline the dark-mode gate compares against."""
    session.statement_count += 1
    return session.execute_statement(parse(sql))


def measure_dark_overhead(
    statements: int = 600, rows: int = 2_000, repeats: int = 5
) -> dict[str, Any]:
    """Point-lookup workload: no-dispatch baseline vs dark vs traced."""
    db, session = _build_db(rows)
    traced_db, traced_session = _build_db(rows, tracing=True)
    workload = [f"SELECT v FROM t WHERE id = {i % rows}" for i in range(statements)]

    def run_baseline() -> None:
        for sql in workload:
            _plain_execute(session, sql)

    def run_dark() -> None:
        for sql in workload:
            session.execute(sql)

    def run_traced() -> None:
        for sql in workload:
            traced_session.execute(sql)

    variants: dict[str, Callable[[], None]] = {
        "baseline": run_baseline,
        "dark": run_dark,
        "traced": run_traced,
    }
    best = best_cpu_seconds(variants, repeats)

    def overhead(variant_s: float) -> float:
        return round((variant_s / best["baseline"] - 1.0) * 100.0, 2)

    return {
        "statements": statements,
        "rows": rows,
        "repeats": repeats,
        "baseline_s": round(best["baseline"], 4),
        "dark_s": round(best["dark"], 4),
        "traced_s": round(best["traced"], 4),
        "dark_overhead_pct": overhead(best["dark"]),
        "traced_overhead_pct": overhead(best["traced"]),
        "ring_entries": len(traced_db.tracer.recent()),
    }


def run_feature_probe(rows: int = 200) -> dict[str, Any]:
    """Sanity pass over the lit-up feature surface (not a timing)."""
    db, session = _build_db(rows, tracing=True)
    db.observability_options["slow_statement_s"] = 0.0  # capture everything
    session.execute("SELECT COUNT(*) FROM t WHERE v = 3")
    session.execute("SELECT name FROM t WHERE id = 7")
    analyze = session.execute("EXPLAIN ANALYZE SELECT name FROM t WHERE v = 9")
    tail = session.execute(
        "SELECT sql, duration_ms FROM system.statements "
        "ORDER BY duration_ms DESC LIMIT 1"
    )
    traces = db.tracer.recent()
    return {
        "system_statements_rows": len(
            session.execute("SELECT id FROM system.statements").rows
        ),
        "system_metrics_rows": len(
            session.execute("SELECT name FROM system.metrics").rows
        ),
        "slow_entries": len(db.tracer.slow_statements()),
        "explain_analyze_lines": len(analyze.rows),
        "slowest_sql": tail.rows[0][0] if tail.rows else None,
        "spans_last_statement": len(traces[-1].spans) if traces else 0,
        "render_text_bytes": len(db.metrics.render_text()),
    }


def experiment_observability(
    statements: int = 600, rows: int = 2_000, repeats: int = 5
) -> dict[str, Any]:
    return {
        "overhead": remeasure_until_under(
            lambda: measure_dark_overhead(statements, rows, repeats),
            "dark_overhead_pct",
            DARK_OVERHEAD_PCT,
        ),
        "features": run_feature_probe(rows=min(rows, 500)),
    }


def check_observability(result: dict[str, Any], smoke: bool) -> list[str]:
    """The gate: every lit surface populated, and dark costs <= 5%."""
    overhead = result["overhead"]
    features = result["features"]
    return failed(
        [
            expect(f"feature probe: {surface}", features[surface], ">=", least)
            for surface, least in FEATURE_FLOORS.items()
        ]
        + [
            expect(f"dark-mode overhead % (best of {overhead['measurements']})",
                   overhead["dark_overhead_pct"], "<=", DARK_OVERHEAD_PCT)
        ]
    )
