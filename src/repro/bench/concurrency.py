"""Concurrency benchmark: threaded dispatcher vs serialized execution.

Two workloads over the multi-session service layer:

* **Read-heavy mixed** — N agent sessions issue a stream of SELECTs (PK
  probes, scans, aggregates) with a sprinkle of INSERTs into a shared
  audit table, against one in-memory database. Every request carries a
  simulated downstream I/O delay (the network/LLM round trip a real
  agent front end spends most of its wall clock on — pure-Python CPU
  work cannot speed up under the GIL, *overlapping I/O waits* is exactly
  the dispatcher's job). The same request stream runs once through a
  one-worker :class:`~repro.service.Dispatcher` (one request at a time)
  and once through ``workers`` of them; the headline number is the
  throughput ratio.

* **Writer contention** — M sessions repeatedly run the classic
  lost-update transaction (``BEGIN``; read a shared counter; write back
  +1; ``COMMIT``) through the threaded dispatcher against a *durable*
  database. Shared locks held to transaction end force upgrade
  deadlocks; victims receive a retryable error and re-run. The workload
  passes only if **every** increment lands (zero lost updates), every
  session terminates (zero hangs — each deadlock was detected and a
  victim aborted), and the recovered database replays to the same
  counter value (WAL ``seq`` stayed sane under concurrent commits).

* **Retry litmus** — the writer-contention workload again, at the same
  sizes, with a zero-backoff immediate-re-issue policy instead of the
  default jittered backoff. Neither leg may lose an update; the backoff
  leg's commit throughput must stay comparable (backoff trades a little
  latency for decorrelated retries).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from typing import Any

from ..mcp import ToolCall, ToolResult
from ..minidb import Database
from ..service import (
    Dispatcher,
    RetryPolicy,
    SessionManager,
    retryable_result,
    run_with_retries,
)
from ..service.sessions import ServiceSession
from .gates import expect, failed

_FIRST = ["ada", "grace", "edsger", "barbara", "donald", "alan", "margaret"]
_CITY = ["zurich", "lisbon", "osaka", "quito", "tromso", "accra", "perth"]


def _build_read_db(rows: int) -> Database:
    db = Database(owner="admin")
    session = db.connect("admin")
    session.execute(
        "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, city TEXT, "
        "spend INT)"
    )
    session.execute("CREATE INDEX idx_customers_city ON customers (city)")
    session.execute("CREATE TABLE audit (id INT PRIMARY KEY, note TEXT)")
    values = [
        f"({i}, '{_FIRST[i % len(_FIRST)]}-{i}', '{_CITY[i % len(_CITY)]}', {i % 997})"
        for i in range(rows)
    ]
    for start in range(0, rows, 500):
        session.execute(
            "INSERT INTO customers VALUES " + ", ".join(values[start : start + 500])
        )
    return db


def _read_heavy_calls(
    session_index: int, ops: int, rows: int
) -> list[ToolCall]:
    """One session's request stream: ~92% reads, ~8% audit inserts."""
    calls: list[ToolCall] = []
    for op in range(ops):
        kind = op % 12
        if kind < 8:  # indexed point read (the OLTP bread and butter)
            key = (session_index * 7919 + op * 104729) % rows
            sql = f"SELECT name, spend FROM customers WHERE id = {key}"
        elif kind < 10:  # index-probed city slice with a residual filter
            city = _CITY[(session_index + op) % len(_CITY)]
            sql = (
                "SELECT id, name FROM customers "
                f"WHERE city = '{city}' AND spend > 990"
            )
        elif kind < 11:  # aggregate over one indexed city
            city = _CITY[(session_index * 3 + op) % len(_CITY)]
            sql = (
                "SELECT COUNT(*), SUM(spend) FROM customers "
                f"WHERE city = '{city}'"
            )
        else:  # the mixed part: a write into a shared table
            audit_id = session_index * 100_000 + op
            sql = (
                f"INSERT INTO audit VALUES ({audit_id}, "
                f"'session {session_index} op {op}')"
            )
        action = "insert" if sql.startswith("INSERT") else "select"
        calls.append(ToolCall(action, {"sql": sql}))
    return calls


def _io_handler(io_delay_s: float):
    """Wrap the default handler with a simulated downstream I/O wait."""

    def handler(session: ServiceSession, call: ToolCall) -> ToolResult:
        if io_delay_s > 0:
            time.sleep(io_delay_s)
        return session.call(call)

    return handler


def run_read_heavy(
    sessions: int = 8,
    workers: int = 8,
    ops_per_session: int = 40,
    rows: int = 10_000,
    io_delay_ms: float = 8.0,
) -> dict[str, Any]:
    """Throughput of the threaded dispatcher vs serialized execution."""
    io_delay_s = io_delay_ms / 1000.0
    streams: dict[int, list[ToolCall]] = {
        n: _read_heavy_calls(n, ops_per_session, rows) for n in range(sessions)
    }
    # round-robin interleave so the serialized baseline is order-fair
    interleaved: list[tuple[int, ToolCall]] = []
    for op in range(ops_per_session):
        for n in range(sessions):
            interleaved.append((n, streams[n][op]))

    timings: dict[str, float] = {}
    error_counts: dict[str, int] = {}
    for label in ("serial", "threaded"):
        db = _build_read_db(rows)
        manager = SessionManager(db, lock_timeout_s=10.0)
        tokens = {
            n: manager.create_session("admin").token for n in range(sessions)
        }
        dispatcher = Dispatcher(
            manager,
            workers=1 if label == "serial" else workers,
            handler=_io_handler(io_delay_s),
            queue_limit=sessions * ops_per_session + 1,
        )
        started = time.perf_counter()
        futures = [
            dispatcher.submit(tokens[n], call) for n, call in interleaved
        ]
        results = [future.result(timeout=120.0) for future in futures]
        timings[label] = time.perf_counter() - started
        error_counts[label] = sum(1 for r in results if r.is_error)
        if label == "threaded":
            metrics = dispatcher.metrics.snapshot()
        dispatcher.close()
        manager.close()

    requests = len(interleaved)
    speedup = timings["serial"] / timings["threaded"]
    return {
        "sessions": sessions,
        "workers": workers,
        "baseline": "Dispatcher(workers=1)",
        "requests": requests,
        "rows": rows,
        "io_delay_ms": io_delay_ms,
        "serial_s": round(timings["serial"], 4),
        "threaded_s": round(timings["threaded"], 4),
        "serial_rps": round(requests / timings["serial"], 1),
        "threaded_rps": round(requests / timings["threaded"], 1),
        "speedup": round(speedup, 2),
        "errors": error_counts,
        "p50_latency_ms": round(metrics["p50_latency_s"] * 1000, 3),
        "p95_latency_ms": round(metrics["p95_latency_s"] * 1000, 3),
        "max_queue_depth": metrics["max_queue_depth"],
    }


def run_writer_contention(
    sessions: int = 6,
    increments_per_session: int = 20,
    lock_timeout_s: float = 5.0,
    session_deadline_s: float = 120.0,
    retry_policy: RetryPolicy | None = None,
) -> dict[str, Any]:
    """Lost-update stress through the threaded dispatcher, durably.

    Each session re-issues its deadlock-aborted transactions through the
    blessed :func:`~repro.service.run_with_retries` primitive.
    ``retry_policy`` overrides the backoff schedule — the retry litmus
    passes a zero-backoff policy to measure what the jitter costs (and
    buys) against immediate re-issue.
    """
    data_dir = tempfile.mkdtemp(prefix="bench-concurrency-")
    try:
        db = Database.open(os.path.join(data_dir, "db"))
        admin = db.connect("admin")
        admin.execute("CREATE TABLE counters (id INT PRIMARY KEY, val INT)")
        admin.execute("INSERT INTO counters VALUES (1, 0)")
        manager = SessionManager(db, lock_timeout_s=lock_timeout_s)
        # workers >= sessions: a session blocked in a lock wait must never
        # starve the request that would resolve (or detect) the cycle
        dispatcher = Dispatcher(
            manager, workers=sessions, queue_limit=sessions * 4
        )
        outcome = {
            "committed": 0,
            "retries": 0,
            "stuck_sessions": 0,
            "unexpected_errors": 0,
        }
        guard = threading.Lock()

        def one_session(index: int) -> None:
            token = manager.create_session("admin").token
            deadline = time.monotonic() + session_deadline_s
            # generous attempt budget: under heavy upgrade-deadlock storms
            # most attempts are victims; the deadline below bounds time
            policy = retry_policy or RetryPolicy(
                max_attempts=1000,
                base_delay_s=0.001,
                max_delay_s=0.05,
                seed=index,
            )

            def call(tool: str, **arguments: Any) -> ToolResult:
                return dispatcher.call(token, ToolCall(tool, arguments))

            def attempt() -> ToolResult:
                """One whole read-modify-write transaction; returns the
                first error result (after rolling back) or the commit."""
                begin = call("begin")
                if begin.is_error:
                    return begin
                read = call("select", sql="SELECT val FROM counters WHERE id = 1")
                if read.is_error:
                    # the deadlock abort already rolled the transaction
                    # back; this rollback is a harmless no-op then
                    call("rollback")
                    return read
                value = read.metadata["rows"][0][0]
                write = call(
                    "update", sql=f"UPDATE counters SET val = {value + 1} WHERE id = 1"
                )
                if write.is_error:
                    call("rollback")
                    return write
                return call("commit")

            def note_retry(attempt_number: int, failure: Any) -> None:
                with guard:
                    outcome["retries"] += 1

            done = 0
            while done < increments_per_session:
                if time.monotonic() > deadline:
                    with guard:
                        outcome["stuck_sessions"] += 1
                    return
                result = run_with_retries(
                    attempt,
                    policy,
                    retry_result=retryable_result,
                    on_retry=note_retry,
                )
                if result.is_error:
                    with guard:
                        outcome["unexpected_errors"] += 1
                    continue
                done += 1
                with guard:
                    outcome["committed"] += 1

        threads = [
            threading.Thread(target=one_session, args=(n,), daemon=True)
            for n in range(sessions)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=session_deadline_s + 30.0)
        elapsed = time.perf_counter() - started
        stuck = outcome["stuck_sessions"] + sum(
            1 for thread in threads if thread.is_alive()
        )

        final_value = db.connect("admin").scalar(
            "SELECT val FROM counters WHERE id = 1"
        )
        lock_stats = dict(manager.lock_manager.stats)
        dispatcher.close()
        manager.close()
        db.close()

        # recovery check: reopen and confirm the WAL replays to the same
        # state the live database reached under concurrent commits
        reopened = Database.open(os.path.join(data_dir, "db"))
        recovered_value = reopened.connect("admin").scalar(
            "SELECT val FROM counters WHERE id = 1"
        )
        reopened.close()

        expected = sessions * increments_per_session
        return {
            "sessions": sessions,
            "increments_per_session": increments_per_session,
            "elapsed_s": round(elapsed, 3),
            "committed": outcome["committed"],
            "expected": expected,
            "final_value": final_value,
            "recovered_value": recovered_value,
            "lost_updates": outcome["committed"] - final_value,
            "retries": outcome["retries"],
            "deadlocks_detected": lock_stats["deadlocks"],
            "lock_timeouts": lock_stats["timeouts"],
            "stuck_sessions": stuck,
            "unexpected_errors": outcome["unexpected_errors"],
        }
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def experiment_concurrency(
    sessions: int = 8,
    workers: int = 8,
    ops_per_session: int = 40,
    rows: int = 10_000,
    io_delay_ms: float = 8.0,
    writer_sessions: int = 6,
    increments_per_session: int = 20,
) -> dict[str, Any]:
    """Both workloads, the zero-backoff leg, and the combined verdicts."""
    read_heavy = run_read_heavy(sessions, workers, ops_per_session, rows, io_delay_ms)
    contention = run_writer_contention(writer_sessions, increments_per_session)
    immediate = run_writer_contention(
        writer_sessions,
        increments_per_session,
        retry_policy=RetryPolicy(max_attempts=1_000, base_delay_s=0.0, jitter=0.0),
    )
    contention_ok = (
        contention["lost_updates"] == 0
        and contention["stuck_sessions"] == 0
        and contention["unexpected_errors"] == 0
        and contention["committed"] == contention["expected"]
        and contention["final_value"] == contention["recovered_value"]
    )
    backoff_rate, immediate_rate = (
        round(leg["committed"] / max(leg["elapsed_s"], 1e-9), 1)
        for leg in (contention, immediate)
    )
    return {
        "read_heavy": read_heavy,
        "writer_contention": contention,
        "contention_ok": contention_ok,
        "zero_backoff": immediate,
        "backoff_commits_per_s": backoff_rate,
        "zero_backoff_commits_per_s": immediate_rate,
        "throughput_ratio": round(backoff_rate / max(immediate_rate, 1e-9), 3),
        "litmus_ok": all(
            leg["lost_updates"] == 0
            and leg["stuck_sessions"] == 0
            and leg["committed"] == leg["expected"]
            for leg in (contention, immediate)
        ),
    }


#: threaded-over-serialized throughput floors (full size, smoke): CI
#: machines may have few cores
SPEEDUP_FLOORS = (3.0, 1.5)
#: the litmus tolerates throughput noise; backoff must not collapse
#: against immediate re-issue
THROUGHPUT_RATIO_FLOOR = 0.5


def check_concurrency(result: dict[str, Any], smoke: bool) -> list[str]:
    """The gate: no lost update, no stuck session, no error, overlap, and
    backoff that does not collapse throughput."""
    read = result["read_heavy"]
    contention = result["writer_contention"]
    immediate = result["zero_backoff"]
    return failed(
        [
            expect("lost updates", contention["lost_updates"], "==", 0),
            expect("sessions that never finished",
                   contention["stuck_sessions"], "==", 0),
            expect("counter replayed by recovery",
                   contention["recovered_value"], "==", contention["final_value"]),
            (result["contention_ok"],
             "writer-contention workload did not complete cleanly"),
            expect("read-heavy errors",
                   read["errors"]["serial"] + read["errors"]["threaded"], "==", 0),
            expect("speedup", read["speedup"], ">=", SPEEDUP_FLOORS[smoke]),
            (result["litmus_ok"],
             "retry litmus lost updates or stuck sessions: "
             f"backoff={contention['lost_updates']} lost / "
             f"{contention['stuck_sessions']} stuck, "
             f"immediate={immediate['lost_updates']} lost / "
             f"{immediate['stuck_sessions']} stuck"),
            expect("backoff throughput over immediate re-issue",
                   result["throughput_ratio"], ">=", THROUGHPUT_RATIO_FLOOR),
        ]
    )
