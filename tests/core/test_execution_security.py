"""Tests for F2: action-level tool exposure and object-level verification."""

import pytest

from repro.core import (
    BridgeScope,
    BridgeScopeConfig,
    MinidbBinding,
    SecurityPolicy,
    SqlVerifier,
    SecurityViolation,
)
from repro.minidb import Database, PermissionDenied


class TestToolExposure:
    def test_full_privileges_expose_all_tools(self, manager_bridge):
        actions = set(manager_bridge.exposed_sql_actions())
        assert {"SELECT", "INSERT", "UPDATE", "DELETE"} <= actions

    def test_read_only_user_gets_only_select(self, viewer_bridge):
        assert viewer_bridge.exposed_sql_actions() == ["SELECT"]
        assert "insert" not in viewer_bridge.tool_names()
        assert "delete" not in viewer_bridge.tool_names()

    def test_read_only_user_has_no_transaction_tools(self, viewer_bridge):
        names = viewer_bridge.tool_names()
        assert "begin" not in names
        assert "commit" not in names

    def test_writer_gets_transaction_tools(self, manager_bridge):
        names = manager_bridge.tool_names()
        assert {"begin", "commit", "rollback"} <= set(names)

    def test_policy_blacklist_removes_tools(self, policy_bridge):
        actions = set(policy_bridge.exposed_sql_actions())
        assert "DROP" not in actions
        assert "DELETE" not in actions
        assert "SELECT" in actions

    def test_action_whitelist(self, db):
        bridge = BridgeScope(
            MinidbBinding.for_user(db, "manager"),
            BridgeScopeConfig(policy=SecurityPolicy.read_only()),
        )
        assert bridge.exposed_sql_actions() == ["SELECT"]

    def test_user_without_any_grants_has_no_sql_tools(self, db):
        db.create_user("nobody")
        bridge = BridgeScope(MinidbBinding.for_user(db, "nobody"))
        assert bridge.exposed_sql_actions() == []

    def test_proxy_always_present(self, viewer_bridge):
        assert "proxy" in viewer_bridge.tool_names()


class TestExecution:
    def test_select_returns_rows(self, manager_bridge):
        result = manager_bridge.invoke("select", sql="SELECT * FROM items")
        assert not result.is_error
        assert result.metadata["rowcount"] == 3
        assert "rows" in result.metadata

    def test_insert_reports_rowcount(self, manager_bridge):
        result = manager_bridge.invoke(
            "insert",
            sql="INSERT INTO items VALUES (9, 'hat', 'accessories', 12.0)",
        )
        assert result.content == "INSERT 1"

    def test_row_truncation(self, db):
        bridge = BridgeScope(
            MinidbBinding.for_user(db, "manager"),
            BridgeScopeConfig(max_result_rows=1),
        )
        result = bridge.invoke("select", sql="SELECT * FROM items")
        assert "more rows truncated" in result.content
        # full rows still in metadata for proxy routing
        assert len(result.metadata["rows"]) == 3

    def test_engine_errors_surface(self, manager_bridge):
        result = manager_bridge.invoke("select", sql="SELECT nope FROM items")
        assert result.is_error
        assert result.error_code == "UnknownColumnError"


class TestActionMismatch:
    @pytest.mark.parametrize(
        "tool,sql",
        [
            ("select", "DELETE FROM items"),
            ("select", "INSERT INTO items VALUES (5, 'x', 'y', 1.0)"),
            ("insert", "SELECT * FROM items"),
            ("update", "DROP TABLE items"),
            ("delete", "UPDATE items SET price = 0"),
        ],
    )
    def test_smuggled_action_rejected(self, manager_bridge, tool, sql):
        result = manager_bridge.invoke(tool, sql=sql)
        assert result.is_error
        assert result.error_code == "SecurityViolation"

    def test_transaction_statement_rejected_in_sql_tools(self, manager_bridge):
        result = manager_bridge.invoke("select", sql="BEGIN")
        assert result.is_error

    def test_database_unchanged_after_rejection(self, db, manager_bridge):
        before = db.snapshot()
        manager_bridge.invoke("select", sql="DELETE FROM items")
        assert db.snapshot() == before


class TestObjectLevelVerification:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT item_id, (SELECT i.price FROM sales WHERE order_id = 10) FROM items i",
            "SELECT item_id FROM items WHERE EXISTS (SELECT 1 FROM sales WHERE price > 50)",
            "SELECT item_id FROM items WHERE item_id IN (SELECT item_id FROM sales WHERE price > 50)",
        ],
    )
    def test_correlated_reference_needs_the_column_grant(self, db, sql):
        """The ``select`` tool and minidb both refuse an outer column read
        through a subquery (at the parent, both returned or filtered on
        every ``price``)."""
        admin = db.connect("admin")
        admin.execute("GRANT SELECT (item_id, item_name) ON items TO viewer")
        bridge = BridgeScope(MinidbBinding.for_user(db, "viewer"))
        assert not bridge.invoke("select", sql="SELECT item_id, item_name FROM items").is_error
        result = bridge.invoke("select", sql=sql)
        assert result.is_error and result.error_code == "SecurityViolation"
        assert "permission denied" in result.content and "price" in result.content
        with pytest.raises(PermissionDenied) as denied:
            db.connect("viewer").execute(sql)
        assert denied.value.code == "42501"

    def test_unauthorized_table_intercepted(self, viewer_bridge):
        result = viewer_bridge.invoke("select", sql="SELECT * FROM items")
        assert result.is_error
        assert result.error_code == "SecurityViolation"
        assert "permission denied" in result.content

    def test_join_smuggling_unauthorized_table(self, viewer_bridge):
        result = viewer_bridge.invoke(
            "select",
            sql="SELECT s.amount, i.price FROM sales s JOIN items i "
            "ON s.item_id = i.item_id",
        )
        assert result.is_error

    def test_subquery_smuggling_intercepted(self, policy_bridge):
        result = policy_bridge.invoke(
            "select",
            sql="SELECT * FROM sales WHERE amount > (SELECT MAX(pay) FROM salaries)",
        )
        assert result.is_error
        assert "salaries" in result.content

    def test_policy_blocked_action_through_allowed_tool(self, policy_bridge):
        # DELETE is policy-blocked, so no delete tool; try via update tool
        result = policy_bridge.invoke("update", sql="DELETE FROM sales")
        assert result.is_error

    def test_grant_revoke_never_allowed(self, admin_bridge):
        result = admin_bridge.invoke("select", sql="GRANT SELECT ON items TO viewer")
        assert result.is_error

    def test_verifier_counters(self, db):
        binding = MinidbBinding.for_user(db, "manager")
        verifier = SqlVerifier(binding, SecurityPolicy.permissive())
        verifier.verify("SELECT * FROM items", expected_action="SELECT")
        with pytest.raises(SecurityViolation):
            verifier.verify("SELECT * FROM salaries", expected_action="SELECT")
        assert verifier.verified == 1
        assert verifier.rejected == 1

    def test_column_grant_whole_object_rejected(self, db):
        admin = db.connect("admin")
        db.create_user("partial")
        admin.execute("GRANT SELECT (region) ON sales TO partial")
        bridge = BridgeScope(MinidbBinding.for_user(db, "partial"))
        ok = bridge.invoke("select", sql="SELECT region FROM sales")
        assert not ok.is_error
        denied = bridge.invoke("select", sql="SELECT * FROM sales")
        assert denied.is_error

    def test_create_requires_database_wide_privilege(self, manager_bridge, db):
        result = manager_bridge.invoke("create", sql="CREATE TABLE t2 (x INT)")
        assert result.is_error  # manager lacks database-wide CREATE
        db.connect("admin").execute("GRANT CREATE ON * TO manager")
        bridge = BridgeScope(MinidbBinding.for_user(db, "manager"))
        assert not bridge.invoke("create", sql="CREATE TABLE t2 (x INT)").is_error


class TestTransactionTools:
    def test_begin_commit_persists(self, manager_bridge, db):
        manager_bridge.invoke("begin")
        manager_bridge.invoke(
            "insert", sql="INSERT INTO items VALUES (7, 'belt', 'accessories', 9.0)"
        )
        manager_bridge.invoke("commit")
        assert db.table_row_count("items") == 4

    def test_rollback_reverts(self, manager_bridge, db):
        manager_bridge.invoke("begin")
        manager_bridge.invoke("delete", sql="DELETE FROM sales")
        manager_bridge.invoke("rollback")
        assert db.table_row_count("sales") == 3

    def test_commit_without_begin_errors(self, manager_bridge):
        result = manager_bridge.invoke("commit")
        assert result.is_error

    def test_atomic_multi_insert(self, manager_bridge, db):
        manager_bridge.invoke("begin")
        manager_bridge.invoke(
            "insert", sql="INSERT INTO sales VALUES (20, 1, 5.0, 'Midwest')"
        )
        manager_bridge.invoke(
            "insert", sql="INSERT INTO sales VALUES (21, 2, 6.0, 'Midwest')"
        )
        manager_bridge.invoke("rollback")
        assert db.table_row_count("sales") == 3


class TestVerificationCost:
    """What verification costs, counted: it parses and analyzes a template
    once and then only binds literals; it never runs the statement."""

    SQL = (
        "SELECT i.category, AVG(s.amount) FROM items i "
        "JOIN sales s ON s.item_id = i.item_id "
        "WHERE s.amount > {} GROUP BY i.category"
    )

    def test_one_template_is_analyzed_once_and_never_executed(self, db, monkeypatch):
        from repro.minidb.parser import parse_cache_stats

        executor = db.executor
        counted = {"executions": 0, "examined": 0}

        def execute(*args, _real=executor.execute, **kwargs):
            counted["executions"] += 1
            return _real(*args, **kwargs)

        def scan(*args, _real=executor._scan, **kwargs):
            relation, rids, examined = _real(*args, **kwargs)
            counted["examined"] += examined
            return relation, rids, examined

        monkeypatch.setattr(executor, "execute", execute)
        monkeypatch.setattr(executor, "_scan", scan)
        verifier = SqlVerifier(
            MinidbBinding.for_user(db, "manager"), SecurityPolicy.permissive()
        )
        texts = [self.SQL.format(n) for n in range(1000, 1050)]
        verifier.verify(texts[0], expected_action="SELECT")
        before = parse_cache_stats()
        for sql in texts[1:]:
            verifier.verify(sql, expected_action="SELECT")
        after = parse_cache_stats()
        moved = {key: after[key] - before[key] for key in after if "entries" not in key}

        assert verifier.verified == len(texts)
        assert moved["template_misses"] == moved["analysis_misses"] == 0
        # every later text is bound from the template and served its analysis
        assert moved["template_hits"] == moved["analysis_hits"] == len(texts) - 1
        assert counted == {"executions": 0, "examined": 0}
