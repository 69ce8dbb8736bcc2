"""Tests for the privilege system and static SQL analysis."""

import pytest

from repro.minidb import Database, PermissionDenied, analyze, parse
from repro.minidb.errors import UnknownColumnError
from repro.minidb.privileges import PrivilegeManager


#: a subquery reads ``salaries.pay`` by correlation: qualified, bare in
#: EXISTS, bare in IN (``sales`` has no ``pay``)
CORRELATED_LEAKS = [
    "SELECT id, (SELECT p.pay FROM sales) FROM salaries p",
    "SELECT id FROM salaries WHERE EXISTS (SELECT 1 FROM sales WHERE pay > 100)",
    "SELECT id FROM salaries WHERE id IN (SELECT id FROM sales WHERE pay > 100)",
]


@pytest.fixture
def db():
    database = Database(owner="admin")
    admin = database.connect("admin")
    admin.execute("CREATE TABLE sales (id INT PRIMARY KEY, amount FLOAT, region TEXT)")
    admin.execute("CREATE TABLE salaries (id INT PRIMARY KEY, who TEXT, pay FLOAT)")
    admin.execute("INSERT INTO sales VALUES (1, 10.0, 'west'), (2, 20.0, 'east')")
    admin.execute("INSERT INTO salaries VALUES (1, 'alice', 9000.0)")
    database.create_user("analyst")
    database.create_user("clerk")
    return database


@pytest.fixture
def admin(db):
    return db.connect("admin")


class TestPrivilegeManagerUnit:
    def test_owner_has_everything(self):
        pm = PrivilegeManager("root")
        assert pm.allows("root", "DROP", "anything")

    def test_unknown_user_denied(self):
        pm = PrivilegeManager("root")
        assert not pm.allows("ghost", "SELECT", "t")

    def test_grant_and_check(self):
        pm = PrivilegeManager("root")
        pm.grant("u", "SELECT", "t")
        assert pm.allows("u", "SELECT", "t")
        assert not pm.allows("u", "INSERT", "t")

    def test_grant_all_expands(self):
        pm = PrivilegeManager("root")
        pm.grant("u", "ALL", "t")
        for action in ("SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER"):
            assert pm.allows("u", action, "t")

    def test_revoke(self):
        pm = PrivilegeManager("root")
        pm.grant("u", "SELECT", "t")
        pm.revoke("u", "SELECT", "t")
        assert not pm.allows("u", "SELECT", "t")

    def test_wildcard_object_grant(self):
        pm = PrivilegeManager("root")
        pm.grant("u", "SELECT", "*")
        assert pm.allows("u", "SELECT", "whatever")

    def test_public_grants_apply_to_all(self):
        pm = PrivilegeManager("root")
        pm.create_user("u")
        pm.grant("public", "SELECT", "t")
        assert pm.allows("u", "SELECT", "t")

    def test_column_level_grant(self):
        pm = PrivilegeManager("root")
        pm.grant("u", "SELECT", "t", columns=["a", "b"])
        assert pm.allows("u", "SELECT", "t", {"a"})
        assert pm.allows("u", "SELECT", "t", {"a", "b"})
        assert not pm.allows("u", "SELECT", "t", {"a", "c"})
        # whole-object access not allowed with only a column grant
        assert not pm.allows("u", "SELECT", "t", None)

    def test_column_restrictions_reporting(self):
        pm = PrivilegeManager("root")
        pm.grant("u", "SELECT", "t", columns=["a"])
        pm.grant("u", "SELECT", "t", columns=["b"])
        assert pm.column_restrictions("u", "SELECT", "t") == {"a", "b"}
        pm.grant("u", "SELECT", "t")
        assert pm.column_restrictions("u", "SELECT", "t") is None

    def test_column_grants_cover_by_their_union(self):
        """As in PostgreSQL: two column grants, or one of the user's and
        one of PUBLIC's, together allow what each alone does not."""
        pm = PrivilegeManager("root")
        pm.grant("u", "SELECT", "t", columns=["a"])
        pm.grant("public", "SELECT", "t", columns=["b"])
        assert pm.allows("u", "SELECT", "t", {"a", "b"})
        assert not pm.allows("u", "SELECT", "t", {"a", "c"})
        assert not pm.allows("u", "SELECT", "t", None)
        pm.check("u", "SELECT", "t", {"a", "b"})

    def test_check_names_the_refused_access(self):
        pm = PrivilegeManager("root")
        pm.grant("u", "UPDATE", "t", columns=["a"])
        with pytest.raises(PermissionDenied) as denied:
            pm.check("u", "UPDATE", "t", {"a", "b"})
        assert denied.value.access == ("UPDATE", "t", {"a", "b"})
        assert denied.value.granted == {"a"}
        with pytest.raises(PermissionDenied) as denied:
            pm.check("u", "CREATE", "*")
        assert denied.value.access == ("CREATE", "*", None)
        assert denied.value.granted == frozenset()

    def test_column_revoke_takes_the_named_columns(self):
        pm = PrivilegeManager("root")
        pm.grant("u", "SELECT", "t", columns=["a", "b"])
        pm.grant("u", "SELECT", "t", columns=["a"])
        pm.revoke("u", "SELECT", "t", columns=["a"])
        assert pm.column_restrictions("u", "SELECT", "t") == {"b"}
        pm.revoke("u", "SELECT", "t", columns=["b"])
        assert pm.grants_of("u") == []
        # a whole-object grant is not a column grant: it stays
        pm.grant("u", "SELECT", "t")
        pm.revoke("u", "SELECT", "t", columns=["a"])
        assert pm.allows("u", "SELECT", "t", {"a"})

    def test_actions_on(self):
        pm = PrivilegeManager("root")
        pm.grant("u", "SELECT", "t")
        pm.grant("u", "INSERT", "t")
        assert pm.actions_on("u", "t") == {"SELECT", "INSERT"}

    def test_check_raises_with_detail(self):
        pm = PrivilegeManager("root")
        pm.create_user("u")
        with pytest.raises(PermissionDenied, match="SELECT on t"):
            pm.check("u", "SELECT", "t")


class TestDatabaseEnforcement:
    def test_select_requires_grant(self, db, admin):
        analyst = db.connect("analyst")
        with pytest.raises(PermissionDenied):
            analyst.execute("SELECT * FROM sales")
        admin.execute("GRANT SELECT ON sales TO analyst")
        assert analyst.scalar("SELECT COUNT(*) FROM sales") == 2

    def test_write_requires_grant(self, db, admin):
        admin.execute("GRANT SELECT ON sales TO analyst")
        analyst = db.connect("analyst")
        with pytest.raises(PermissionDenied):
            analyst.execute("INSERT INTO sales VALUES (3, 1.0, 'n')")
        with pytest.raises(PermissionDenied):
            analyst.execute("UPDATE sales SET amount = 0")
        with pytest.raises(PermissionDenied):
            analyst.execute("DELETE FROM sales")

    def test_join_requires_grants_on_both_tables(self, db, admin):
        admin.execute("GRANT SELECT ON sales TO analyst")
        analyst = db.connect("analyst")
        with pytest.raises(PermissionDenied):
            analyst.execute(
                "SELECT s.amount, p.pay FROM sales s JOIN salaries p ON s.id = p.id"
            )

    def test_subquery_tables_checked(self, db, admin):
        admin.execute("GRANT SELECT ON sales TO analyst")
        analyst = db.connect("analyst")
        with pytest.raises(PermissionDenied):
            analyst.execute(
                "SELECT * FROM sales WHERE id IN (SELECT id FROM salaries)"
            )

    def test_column_level_enforcement(self, db, admin):
        admin.execute("GRANT SELECT (region) ON sales TO clerk")
        clerk = db.connect("clerk")
        assert clerk.execute("SELECT region FROM sales").rowcount == 2
        with pytest.raises(PermissionDenied):
            clerk.execute("SELECT amount FROM sales")
        with pytest.raises(PermissionDenied):
            clerk.execute("SELECT * FROM sales")

    def test_update_column_grant(self, db, admin):
        admin.execute("GRANT UPDATE (amount) ON sales TO clerk")
        admin.execute("GRANT SELECT ON sales TO clerk")
        clerk = db.connect("clerk")
        clerk.execute("UPDATE sales SET amount = 0 WHERE id = 1")
        with pytest.raises(PermissionDenied):
            clerk.execute("UPDATE sales SET region = 'x' WHERE id = 1")

    def test_grant_only_by_owner(self, db, admin):
        admin.execute("GRANT SELECT ON sales TO analyst")
        analyst = db.connect("analyst")
        with pytest.raises(PermissionDenied):
            analyst.execute("GRANT SELECT ON sales TO clerk")

    def test_drop_requires_privilege(self, db, admin):
        admin.execute("GRANT SELECT ON sales TO analyst")
        analyst = db.connect("analyst")
        with pytest.raises(PermissionDenied):
            analyst.execute("DROP TABLE sales")

    def test_create_is_database_wide(self, db, admin):
        analyst = db.connect("analyst")
        with pytest.raises(PermissionDenied):
            analyst.execute("CREATE TABLE mine (x INT)")
        admin.execute("GRANT CREATE ON * TO analyst")
        analyst.execute("CREATE TABLE mine (x INT)")

    def test_unknown_user_cannot_connect(self, db):
        with pytest.raises(PermissionDenied):
            db.connect("ghost")

    def test_transaction_control_needs_no_privilege(self, db):
        analyst = db.connect("analyst")
        analyst.execute("BEGIN")
        analyst.execute("ROLLBACK")

    @pytest.mark.parametrize("sql", CORRELATED_LEAKS)
    def test_correlated_reference_needs_the_column_grant(self, db, admin, sql):
        """A subquery's reference to an outer table's column is checked
        against that table's column grant (at the parent, each of these
        returned or filtered on every ``pay``)."""
        admin.execute("GRANT SELECT (id, who) ON salaries TO clerk")
        admin.execute("GRANT SELECT ON sales TO clerk")
        clerk = db.connect("clerk")
        assert clerk.execute("SELECT id, who FROM salaries").rowcount == 1
        with pytest.raises(PermissionDenied) as denied:
            clerk.execute(sql)
        assert denied.value.code == "42501" and "pay" in str(denied.value)


class TestColumnGrantChanges:
    def test_column_revoke_takes_the_named_columns(self, tmp_path):
        """``REVOKE SELECT (who)`` after ``GRANT SELECT (id, who)`` leaves
        ``id`` only — live, and after the WAL is replayed (at the parent
        the revoke matched no grant and ``who`` stayed readable)."""
        path = str(tmp_path / "db")
        db = Database.open(path)
        admin = db.connect("admin")
        admin.execute("CREATE TABLE salaries (id INT PRIMARY KEY, who TEXT)")
        admin.execute("INSERT INTO salaries VALUES (1, 'alice')")
        db.create_user("analyst")
        admin.execute("GRANT SELECT (id, who) ON salaries TO analyst")
        admin.execute("REVOKE SELECT (who) ON salaries FROM analyst")
        for reopen in (False, True):
            if reopen:
                db.close()
                db = Database.open(path)
            analyst = db.connect("analyst")
            assert analyst.execute("SELECT id FROM salaries").rows == [(1,)]
            with pytest.raises(PermissionDenied):
                analyst.execute("SELECT who FROM salaries")
        db.close()

    @pytest.mark.parametrize(
        "grant",
        [
            "GRANT SELECT (nosuch) ON sales TO analyst",
            "GRANT UPDATE (region, nosuch) ON sales TO analyst",
            "GRANT SELECT (pay) ON v TO analyst",
            "GRANT SELECT (id) ON v, sales TO analyst",
        ],
    )
    def test_grant_on_a_missing_column_fails(self, db, admin, grant):
        admin.execute("CREATE VIEW v AS SELECT region FROM sales")
        with pytest.raises(UnknownColumnError) as refused:
            admin.execute(grant)
        assert refused.value.code == "42703"
        assert db.privileges.grants_of("analyst") == []
        admin.execute("GRANT SELECT (region) ON v, sales TO analyst")
        assert len(db.privileges.grants_of("analyst")) == 2


class TestStatementAnalysis:
    def test_select_objects_and_columns(self):
        stmt = parse("SELECT a, b FROM t WHERE c > 1")
        analysis = analyze(stmt)
        assert analysis.action == "SELECT"
        assert analysis.is_read_only
        access = analysis.accesses[0]
        assert access.obj == "t"
        assert access.columns == {"a", "b", "c"}

    def test_select_star_claims_whole_object(self):
        analysis = analyze(parse("SELECT * FROM t"))
        assert analysis.accesses[0].whole_object

    def test_join_collects_all_tables(self):
        analysis = analyze(parse(
            "SELECT t.a FROM t JOIN u ON t.id = u.id WHERE u.x = 1"
        ))
        assert set(analysis.objects()) == {"t", "u"}

    def test_qualified_columns_attributed_to_alias_table(self):
        analysis = analyze(parse("SELECT e.a FROM emp e"))
        access = analysis.accesses[0]
        assert access.obj == "emp"
        assert access.columns == {"a"}

    def test_insert_analysis(self):
        analysis = analyze(parse("INSERT INTO t (a, b) VALUES (1, 2)"))
        assert analysis.action == "INSERT"
        assert not analysis.is_read_only
        assert analysis.accesses[0].columns == {"a", "b"}

    def test_insert_without_columns_needs_whole_object(self):
        assert analyze(parse("INSERT INTO t VALUES (1)")).accesses[0].whole_object

    def test_insert_select_includes_source(self):
        analysis = analyze(parse("INSERT INTO t SELECT * FROM u"))
        actions = {(a.action, a.obj) for a in analysis.accesses}
        assert ("INSERT", "t") in actions
        assert ("SELECT", "u") in actions

    def test_update_read_and_write_columns(self):
        analysis = analyze(parse("UPDATE t SET a = b + 1 WHERE c = 2"))
        update = next(a for a in analysis.accesses if a.action == "UPDATE")
        select = next(a for a in analysis.accesses if a.action == "SELECT")
        assert update.columns == {"a"}
        assert select.columns == {"b", "c"}

    def test_delete_analysis(self):
        analysis = analyze(parse("DELETE FROM t WHERE x = 1"))
        assert analysis.action == "DELETE"
        assert analysis.accesses[0].action == "DELETE"

    def test_ddl_flags(self):
        assert analyze(parse("CREATE TABLE t (a INT)")).is_ddl
        assert analyze(parse("DROP TABLE t")).is_ddl
        assert analyze(parse("ALTER TABLE t RENAME TO u")).is_ddl

    def test_create_table_with_fk_reads_referenced(self):
        analysis = analyze(parse(
            "CREATE TABLE t (a INT, FOREIGN KEY (a) REFERENCES u(id))"
        ))
        actions = {(a.action, a.obj) for a in analysis.accesses}
        assert ("SELECT", "u") in actions

    def test_transaction_control_flagged(self):
        assert analyze(parse("BEGIN")).is_transaction_control
        assert analyze(parse("COMMIT")).is_transaction_control

    def test_correlated_subquery_attribution(self):
        analysis = analyze(parse(
            "SELECT name FROM dept d WHERE EXISTS "
            "(SELECT 1 FROM emp e WHERE e.dept_id = d.id)"
        ))
        assert [(a.action, a.obj, a.columns) for a in analysis.accesses] == [
            ("SELECT", "dept", {"name", "id"}),
            ("SELECT", "emp", {"dept_id"}),
        ]

    def test_correlated_names_resolve_to_the_nearest_binding_block(self, db):
        """With a catalog, a bare name binds in the nearest block with a
        table that has it, as the executor resolves it; without one it is
        attributed to every table in reach."""
        def columns(sql, catalog):
            return {a.obj: a.columns for a in analyze(parse(sql), catalog).accesses}

        inner = "SELECT amount FROM sales WHERE EXISTS (SELECT 1 FROM salaries WHERE id = 1)"
        assert columns(inner, db.catalog) == {"sales": {"amount"}, "salaries": {"id"}}
        outer = "SELECT amount FROM sales WHERE EXISTS (SELECT 1 FROM salaries WHERE region = 'w')"
        assert columns(outer, db.catalog) == {"sales": {"amount", "region"}, "salaries": set()}
        assert columns(outer, None) == {
            "sales": {"amount", "region"},
            "salaries": {"region"},
        }
        # a qualifier resolves outward too, and stops at the nearest block
        # that binds it (here the inner alias s, not the outer table)
        shadowed = "SELECT s.amount FROM sales s WHERE EXISTS (SELECT s.pay FROM salaries s)"
        assert columns(shadowed, db.catalog) == {"sales": {"amount"}, "salaries": {"pay"}}

    def test_set_op_both_sides(self):
        analysis = analyze(parse("SELECT a FROM t UNION SELECT b FROM u"))
        assert set(analysis.objects()) == {"t", "u"}
