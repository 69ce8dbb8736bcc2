"""SQL-queryable system views: content, privileges, and read-only-ness."""

import pytest

from repro.core import BridgeScope, BridgeScopeConfig, MinidbBinding
from repro.minidb import Database, PermissionDenied
from repro.obs.views import SYSTEM_VIEW_COLUMNS, is_system_relation
from repro.service import LockManager


@pytest.fixture
def db():
    database = Database(owner="admin")
    database.observability_options["tracing"] = True
    admin = database.connect("admin")
    admin.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    admin.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    return database


class TestResolution:
    def test_is_system_relation_case_insensitive(self):
        assert is_system_relation("system.metrics")
        assert is_system_relation("SYSTEM.METRICS")
        assert not is_system_relation("metrics")
        assert not is_system_relation("system.ghost")

    def test_all_views_queryable(self, db):
        session = db.connect("admin")
        for name, columns in SYSTEM_VIEW_COLUMNS.items():
            result = session.execute(f"SELECT * FROM {name}")
            assert list(result.columns) == columns

    def test_unknown_system_relation_still_errors(self, db):
        session = db.connect("admin")
        with pytest.raises(Exception):
            session.execute("SELECT * FROM system.ghost")


class TestStatementsView:
    def test_recent_statements_visible_with_projection(self, db):
        session = db.connect("admin")
        session.execute("SELECT v FROM t WHERE id = 2")
        rows = session.execute(
            "SELECT sql, status, rows_returned FROM system.statements"
        ).rows
        assert ("SELECT v FROM t WHERE id = 2", "SELECT", 1) in rows

    def test_order_by_duration_finds_slowest(self, db):
        session = db.connect("admin")
        session.execute("SELECT v FROM t WHERE id = 1")
        rows = session.execute(
            "SELECT sql, duration_ms FROM system.statements "
            "ORDER BY duration_ms DESC LIMIT 1"
        ).rows
        assert len(rows) == 1
        assert rows[0][1] >= 0.0

    def test_access_path_and_examined_rows_recorded(self, db):
        session = db.connect("admin")
        session.execute("SELECT v FROM t WHERE id = 3")
        row = session.execute(
            "SELECT access_path, rows_examined FROM system.statements "
            "WHERE sql = 'SELECT v FROM t WHERE id = 3'"
        ).rows[0]
        assert row[0] == "index:t"
        assert row[1] == 1

    def test_empty_when_tracing_dark(self):
        database = Database(owner="admin")
        session = database.connect("admin")
        # querying the view is itself untraced, so the ring stays empty
        assert session.execute("SELECT id FROM system.statements").rows == []


class TestMetricsView:
    def test_planner_counters_exported(self, db):
        session = db.connect("admin")
        session.execute("SELECT v FROM t WHERE id = 1")  # pk point lookup
        rows = session.execute(
            "SELECT m.value FROM system.metrics m "
            "WHERE m.name = 'minidb_planner_index_scans_total'"
        ).rows
        assert rows and rows[0][0] >= 1.0

    def test_histogram_expansion_rows_present(self, db):
        session = db.connect("admin")
        session.execute("SELECT v FROM t WHERE id = 1")
        names = {
            row[0]
            for row in session.execute("SELECT name FROM system.metrics").rows
        }
        assert "minidb_statement_seconds_count" in names
        assert "minidb_statement_seconds_p95" in names
        assert "minidb_sessions_live" in names  # collector source

    def test_catalog_pruning_counters_exported(self, db):
        """"Did pruning work on this column" is a query: per ``get_value``,
        candidates generated, bounded and scored, over the cached catalogs."""
        session = db.connect("admin")
        session.execute("CREATE TABLE names (id INT PRIMARY KEY, name TEXT)")
        session.execute(
            "INSERT INTO names VALUES (0, 'target phrase'), "
            + ", ".join(f"({n}, 'tartan {n:04d}')" for n in range(1, 301))
        )
        bridge = BridgeScope(MinidbBinding.for_user(db, "admin"), BridgeScopeConfig())
        result = bridge.invoke("get_value", col="names.name", key="target phrase", k=1)
        assert not result.is_error, result.content
        metrics = dict(session.execute(
            "SELECT name, value FROM system.metrics "
            "WHERE name LIKE 'minidb_retrieval_catalog_%'"
        ).rows)
        assert metrics["minidb_retrieval_catalog_queries"] == 1
        assert metrics["minidb_retrieval_catalog_candidates"] == 301
        assert (
            metrics["minidb_retrieval_catalog_scored"]
            <= metrics["minidb_retrieval_catalog_bounded"]
            < 20
        )
        (catalog,) = db.retrieval_cache.cached_catalogs()
        assert metrics == {
            f"minidb_retrieval_catalog_{key}": value
            for key, value in catalog.stats.items()
        }


class TestLocksView:
    def test_empty_without_lock_manager(self, db):
        session = db.connect("admin")
        assert session.execute("SELECT * FROM system.locks").rows == []

    def test_held_lock_visible_mid_transaction(self, db):
        db.lock_manager = LockManager(timeout_s=1.0)
        writer = db.connect("admin")
        observer = db.connect("admin")
        writer.execute("BEGIN")
        writer.execute("UPDATE t SET v = 99 WHERE id = 1")
        try:
            rows = observer.execute(
                "SELECT relation, mode, state, position FROM system.locks"
            ).rows
            # observing never blocks: the view takes no locks itself
            assert ("t", "X", "held", None) in rows
        finally:
            writer.execute("COMMIT")
        assert observer.execute("SELECT * FROM system.locks").rows == []


class TestSessionsView:
    def test_live_sessions_with_transaction_state(self, db):
        a = db.connect("admin")
        b = db.connect("admin")
        a.execute("BEGIN")
        try:
            rows = b.execute(
                "SELECT session, user, in_transaction FROM system.sessions"
            ).rows
            by_label = {row[0]: row for row in rows}
            assert by_label[a.label] == (a.label, "admin", True)
            assert by_label[b.label] == (b.label, "admin", False)
        finally:
            a.execute("ROLLBACK")

    def test_statement_counts_tracked(self, db):
        session = db.connect("admin")
        before = {
            row[0]: row[1]
            for row in session.execute(
                "SELECT session, statements FROM system.sessions"
            ).rows
        }[session.label]
        session.execute("SELECT 1")
        after = {
            row[0]: row[1]
            for row in session.execute(
                "SELECT session, statements FROM system.sessions"
            ).rows
        }[session.label]
        assert after == before + 2  # the SELECT 1 plus the first view query


class TestPrivileges:
    def test_world_readable_without_grants(self, db):
        db.create_user("bob")
        bob = db.connect("bob")
        assert bob.execute("SELECT name FROM system.metrics").rows
        # ...but ordinary tables still require grants
        with pytest.raises(PermissionDenied):
            bob.execute("SELECT * FROM t")

    def test_writes_rejected_even_for_owner(self, db):
        session = db.connect("admin")
        for sql in (
            "INSERT INTO \"system.metrics\" VALUES ('x', 'counter', 1)",
            "UPDATE \"system.statements\" SET status = 'X'",
            'DELETE FROM "system.metrics"',
            'DROP TABLE "system.metrics"',
        ):
            with pytest.raises(PermissionDenied, match="read-only"):
                session.execute(sql)

    def test_cannot_shadow_system_namespace(self, db):
        session = db.connect("admin")
        with pytest.raises(PermissionDenied, match="read-only"):
            session.execute('CREATE TABLE "system.statements" (x INT)')
