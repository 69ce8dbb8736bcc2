"""Statement-tracing tests: span nesting on the happy / rollback / panic
paths, ring bounding, the JSONL sink, redaction, and the slow-query log."""

import json

import pytest

from repro.faults import FaultPlan, FaultyFilesystem
from repro.minidb import Database
from repro.minidb.errors import (
    LockTimeoutError,
    MiniDBError,
    StorageFailedError,
)
from repro.obs.tracing import redact_sql
from repro.service import LockManager


def traced_db(**options):
    db = Database(owner="admin")
    db.observability_options["tracing"] = True
    db.observability_options.update(options)
    session = db.connect("admin")
    return db, session


class TestRedaction:
    def test_numbers_replaced(self):
        assert (
            redact_sql("SELECT * FROM t WHERE id = 42")
            == "SELECT * FROM t WHERE id = ?"
        )

    def test_strings_with_escapes_replaced(self):
        assert (
            redact_sql("UPDATE t SET name = 'bob''s' WHERE id = 7")
            == "UPDATE t SET name = ? WHERE id = ?"
        )

    def test_identifiers_with_digits_survive(self):
        assert redact_sql("SELECT a1 FROM t2") == "SELECT a1 FROM t2"

    def test_quoted_identifiers_survive(self):
        assert redact_sql('SELECT "c1" FROM t') == 'SELECT "c1" FROM t'

    def test_scientific_notation_replaced(self):
        assert redact_sql("SELECT 1.5e-3 + 2E4") == "SELECT ? + ?"

    def test_redact_literals_option_applies_to_ring(self):
        db, session = traced_db(redact_literals=True)
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        session.execute("INSERT INTO t VALUES (42)")
        assert db.tracer.recent()[-1].sql == "INSERT INTO t VALUES (?)"


class TestSpanNesting:
    def test_select_spans_in_order(self):
        db, session = traced_db()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        session.execute("INSERT INTO t VALUES (1, 10)")
        session.execute("SELECT v FROM t WHERE id = 1")
        trace = db.tracer.recent()[-1]
        assert trace.span_names() == ["parse", "plan", "execute"]
        assert trace.status == "SELECT"
        assert trace.rows_returned == 1
        assert trace.scans and trace.scans[0]["binding"] == "t"
        assert trace.access_path.endswith(":t")

    def test_wal_flush_nests_under_execute(self, tmp_path):
        db = Database.open(str(tmp_path / "db"), owner="admin")
        try:
            db.observability_options["tracing"] = True
            session = db.connect("admin")
            session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            session.execute("INSERT INTO t VALUES (1)")
            trace = db.tracer.recent()[-1]
            execute = next(s for s in trace.spans if s.name == "execute")
            assert "wal-flush" in [child.name for child in execute.children]
        finally:
            db.close()

    def test_error_statement_closes_open_spans(self):
        db, session = traced_db()
        with pytest.raises(MiniDBError):
            session.execute("SELECT broken FROM nowhere")
        trace = db.tracer.recent()[-1]
        assert trace.status == "ERROR"
        assert trace.error
        assert "parse" in trace.span_names()
        assert all(span.duration_s >= 0.0 for span in trace.spans)

    def test_lock_timeout_records_wait_rollback_and_annotation(self):
        db, blocker = traced_db()
        db.lock_manager = LockManager(timeout_s=0.05)
        victim = db.connect("admin")
        blocker.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        blocker.execute("INSERT INTO t VALUES (1, 0)")
        blocker.execute("BEGIN")
        blocker.execute("UPDATE t SET v = 1 WHERE id = 1")  # holds X on t
        victim.execute("BEGIN")
        with pytest.raises(LockTimeoutError):
            victim.execute("UPDATE t SET v = 2 WHERE id = 1")
        blocker.execute("COMMIT")
        trace = next(
            t for t in db.tracer.recent() if t.sql.startswith("UPDATE t SET v = 2")
        )
        names = trace.span_names()
        assert "lock-wait" in names
        assert "rollback" in names
        # the rollback runs after execute unwinds: a root span, not a child
        assert [s.name for s in trace.spans][-1] == "rollback"
        assert trace.annotations["concurrency_abort"] == "LockTimeoutError"
        assert trace.status == "ERROR"
        assert trace.error_code == "55P03"
        assert trace.retryable is True

    def test_storage_panic_traced_as_fail_stop(self, tmp_path):
        fs = FaultyFilesystem(FaultPlan())
        db = Database.open(str(tmp_path / "db"), owner="admin", filesystem=fs)
        try:
            session = db.connect("admin")
            session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            db.observability_options["tracing"] = True
            fs.plan = FaultPlan(error_at=fs.ops)  # next file op fails
            with pytest.raises(StorageFailedError):
                session.execute("INSERT INTO t VALUES (1)")
            trace = db.tracer.recent()[-1]
            assert trace.status == "ERROR"
            assert trace.error_code == "57P02"
            assert trace.retryable is False  # fail-stop is not retryable
        finally:
            db.close()


class TestRingAndSink:
    def test_ring_bounds_memory_under_sustained_load(self):
        db, session = traced_db()
        db.tracer.configure(ring_size=8)
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        for _ in range(30):
            session.execute("SELECT id FROM t")
        recent = db.tracer.recent()
        assert len(recent) == 8
        ids = [trace.trace_id for trace in recent]
        assert ids == sorted(ids)  # newest-last, oldest evicted
        assert ids[-1] - ids[0] == 7

    def test_ringed_trace_does_not_pin_the_plan_it_ran(self):
        """The plan kept on a live trace points at heaps and indexes; once
        the statement is finished the ringed trace must let them go, or a
        dropped table stays alive until the ring evicts the trace."""
        db, session = traced_db()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        session.execute("SELECT id FROM t WHERE id = 1")
        trace = db.tracer.recent()[-1]
        assert trace.scans and trace.plan is None and trace.actuals == {}

    def test_configure_keeps_newest_entries(self):
        db, session = traced_db()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        for _ in range(10):
            session.execute("SELECT id FROM t")
        newest = db.tracer.recent()[-1].trace_id
        db.tracer.configure(ring_size=3)
        assert [t.trace_id for t in db.tracer.recent()] == [
            newest - 2, newest - 1, newest,
        ]

    def test_jsonl_sink_written_through_seam(self, tmp_path):
        sink = tmp_path / "traces.jsonl"
        db, session = traced_db(trace_sink=str(sink))
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        session.execute("INSERT INTO t VALUES (1)")
        session.execute("SELECT id FROM t")
        lines = sink.read_text().splitlines()
        assert len(lines) == 3
        entries = [json.loads(line) for line in lines]
        assert entries[-1]["sql"] == "SELECT id FROM t"
        assert entries[-1]["status"] == "SELECT"
        assert [span["name"] for span in entries[-1]["spans"]] == [
            "parse", "plan", "execute",
        ]

    def test_sink_failure_degrades_tracing_not_statements(self):
        class BoomFS:
            def open(self, *args, **kwargs):
                raise OSError("disk full")

        db, session = traced_db(trace_sink="/nonexistent/traces.jsonl")
        db.tracer.fs = BoomFS()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        result = session.execute("SELECT id FROM t")
        assert result.status == "SELECT"  # the statement itself succeeded
        errors = db.metrics.get("minidb_trace_sink_errors_total")
        assert errors.value == 2


class TestTracerInstruments:
    def test_statement_counters_and_latency(self):
        db, session = traced_db()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        with pytest.raises(MiniDBError):
            session.execute("SELEKT 1")
        assert db.metrics.get("minidb_statements_total").value == 2
        assert db.metrics.get("minidb_statement_errors_total").value == 1
        assert db.metrics.get("minidb_statement_seconds").count == 2

    def test_probe_never_ringed_or_counted(self):
        db, _ = traced_db()
        tracer = db.tracer
        probe = tracer.probe()
        assert tracer.current() is probe
        tracer.release(probe)
        assert tracer.current() is None
        assert probe not in tracer.recent()
        assert db.metrics.get("minidb_statements_total").value == 0


class TestSlowQueryLog:
    def test_threshold_crossing_select_captured_with_plan(self):
        db = Database(owner="admin")
        db.observability_options["slow_statement_s"] = 0.0  # tracing stays off
        session = db.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        session.execute("INSERT INTO t VALUES (1, 10)")
        session.execute("SELECT v FROM t WHERE id = 1")
        entries = db.tracer.slow_statements()
        assert entries  # 0.0 threshold captures everything
        last = entries[-1]
        assert last["sql"] == "SELECT v FROM t WHERE id = 1"
        assert last["duration_s"] >= 0.0
        assert last["trace"]["sql"] == last["sql"]
        assert any("Index Scan" in line for line in last["plan"])
        # slow-log capture without tracing must not populate the ring
        assert db.tracer.recent() == []

    def test_logged_plan_is_the_one_that_ran_not_a_replan(self, monkeypatch):
        """The slow entry renders the plan value the statement executed:
        capturing it plans nothing (a re-plan after the fact could see a
        catalog a concurrent DROP already changed)."""
        from repro.minidb import executor

        db = Database(owner="admin")
        session = db.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        session.execute("INSERT INTO t VALUES (1, 10)")
        session.execute("CREATE VIEW vw AS SELECT * FROM t WHERE id = 1")
        planned = []
        real = executor.plan_select

        def counting(stmt, *args):
            planned.append(stmt)
            return real(stmt, *args)

        monkeypatch.setattr(executor, "plan_select", counting)
        db.observability_options["slow_statement_s"] = 0.0
        session.execute("SELECT v FROM vw")
        assert len(planned) == 1  # child blocks plan inside the one call
        assert db.tracer.slow_statements()[-1]["plan"] == [
            "View Scan on vw",
            "  Index Scan using pk_t on t (key: id)",
        ]

    def test_non_select_statements_log_without_plan(self):
        db = Database(owner="admin")
        db.observability_options["slow_statement_s"] = 0.0
        session = db.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        session.execute("INSERT INTO t VALUES (1)")
        insert_entry = db.tracer.slow_statements()[-1]
        assert insert_entry["sql"] == "INSERT INTO t VALUES (1)"
        assert insert_entry["plan"] == []

    def test_slow_log_is_bounded(self):
        db = Database(owner="admin")
        db.observability_options["slow_statement_s"] = 0.0
        db.tracer.configure(slow_log_size=4)
        session = db.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        for _ in range(10):
            session.execute("SELECT id FROM t")
        assert len(db.tracer.slow_statements()) == 4


class TestDarkMode:
    def test_defaults_start_no_trace_and_share_one_no_op_span(
        self, tmp_path, monkeypatch
    ):
        """With every observability option at its default, statements
        start and finish no trace and every inner hook gets one shared
        no-op span: the dark path's cost, counted instead of timed."""
        db = Database.open(tmp_path)
        session = db.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        assert db.observability_options["tracing"] is False
        assert db.observability_options["slow_statement_s"] is None
        tracer = db.tracer
        calls = {"start": 0, "finish": 0}
        spans = []

        def counting(name):
            real = getattr(tracer, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        def span(name, _real=tracer.span, **meta):
            spans.append(_real(name, **meta))
            return spans[-1]

        for name in calls:
            monkeypatch.setattr(tracer, name, counting(name))
        monkeypatch.setattr(tracer, "span", span)
        statements = 40
        for n in range(statements // 4):
            session.execute(f"INSERT INTO t VALUES ({n}, {n % 3})")
            session.execute(f"SELECT v FROM t WHERE id = {n}")
            session.execute(f"UPDATE t SET v = v + 1 WHERE id = {n}")
            session.execute(f"EXPLAIN SELECT * FROM t WHERE v = {n}")
        db.close()

        assert calls == {"start": 0, "finish": 0}
        assert len(spans) >= statements  # at least each statement's parse span
        assert all(s is spans[0] for s in spans)
        assert tracer.recent() == []
