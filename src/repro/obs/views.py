"""SQL-queryable system views over the observability state.

Four read-only virtual relations, resolved by the executor before the
catalog lookup so they never collide with user tables (dots are not legal
in unquoted ``CREATE TABLE`` names, and the database additionally refuses
writes against any ``system.``-prefixed object):

- ``system.statements`` — tail of the finished-statement trace ring.
- ``system.metrics``    — flat registry samples (histograms expanded).
- ``system.locks``      — live lock holders and waiters per table.
- ``system.sessions``   — connected sessions and their statement counts.

Row producers duck-type the ``Database`` they receive (this module must not
import ``repro.minidb``); each returns ``(columns, rows)`` with rows as
plain dicts keyed by column name, which the executor's scan transposes
into a column batch. System views take no locks — they read snapshots of
already-synchronized state, so observing the system never blocks it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

SYSTEM_VIEW_COLUMNS: Dict[str, List[str]] = {
    "system.statements": [
        "id",
        "started_at",
        "user",
        "session",
        "sql",
        "status",
        "error",
        "duration_ms",
        "rows_returned",
        "rows_examined",
        "access_path",
        "lock_wait_ms",
        "wal_flush_ms",
        "retryable",
    ],
    "system.metrics": ["name", "kind", "value"],
    "system.locks": ["relation", "owner", "mode", "state", "position"],
    "system.sessions": ["session", "user", "in_transaction", "statements"],
}


def is_system_relation(name: str) -> bool:
    return name.lower() in SYSTEM_VIEW_COLUMNS


def _ms(seconds: float) -> float:
    return round(seconds * 1000.0, 3)


def _statement_rows(db: Any) -> List[Dict[str, Any]]:
    rows = []
    for trace in db.tracer.recent():
        rows.append(
            {
                "id": trace.trace_id,
                "started_at": trace.started_at,
                "user": trace.user,
                "session": trace.session,
                "sql": trace.sql,
                "status": trace.status,
                "error": trace.error,
                "duration_ms": _ms(trace.duration_s),
                "rows_returned": trace.rows_returned,
                "rows_examined": trace.rows_examined,
                "access_path": trace.access_path,
                "lock_wait_ms": _ms(trace.span_seconds("lock-wait")),
                "wal_flush_ms": _ms(trace.span_seconds("wal-flush")),
                "retryable": trace.retryable,
            }
        )
    return rows


def _metric_rows(db: Any) -> List[Dict[str, Any]]:
    return [
        {"name": name, "kind": kind, "value": value}
        for name, kind, value in db.metrics.samples()
    ]


def _lock_rows(db: Any) -> List[Dict[str, Any]]:
    manager = db.lock_manager
    if manager is None:
        return []
    rows: List[Dict[str, Any]] = []
    for table, state in sorted(manager.snapshot().items()):
        for owner, mode in sorted(state.get("holders", {}).items()):
            rows.append(
                {
                    "relation": table,
                    "owner": owner,
                    "mode": mode,
                    "state": "held",
                    "position": None,
                }
            )
        for position, (owner, mode) in enumerate(state.get("queue", [])):
            rows.append(
                {
                    "relation": table,
                    "owner": owner,
                    "mode": mode,
                    "state": "waiting",
                    "position": position,
                }
            )
    return rows


def _session_rows(db: Any) -> List[Dict[str, Any]]:
    rows = []
    for session in list(db.live_sessions):
        rows.append(
            {
                "session": session.label,
                "user": session.user,
                "in_transaction": session.tx.in_transaction,
                "statements": session.statement_count,
            }
        )
    rows.sort(key=lambda row: (row["session"] is None, row["session"] or ""))
    return rows


_PRODUCERS = {
    "system.statements": _statement_rows,
    "system.metrics": _metric_rows,
    "system.locks": _lock_rows,
    "system.sessions": _session_rows,
}


def system_view_rows(db: Any, name: str) -> Tuple[List[str], List[Dict[str, Any]]]:
    """Columns and dict-rows for one system view; ``name`` must be valid."""
    key = name.lower()
    return SYSTEM_VIEW_COLUMNS[key], _PRODUCERS[key](db)
