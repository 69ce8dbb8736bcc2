"""A privilege oracle: for each (grants, statement) cell, the tool side
(``SqlVerifier.verify`` then ``MinidbBinding.run_sql``), the engine
(``Session.execute``) and PostgreSQL's rules give one verdict.

PostgreSQL's verdicts below are written by hand from its rules:

* a statement needs SELECT on every column it reads anywhere — in a
  correlated subquery too — and the whole object for ``SELECT *``; a
  SELECT that reads no column of a relation (``SELECT COUNT(*) FROM t``)
  needs SELECT on any one column of it;
* UPDATE needs UPDATE on its SET columns and SELECT on the columns its
  WHERE reads; INSERT needs INSERT on its target columns;
* a column access is allowed when the *union* of the user's and PUBLIC's
  grants for that (action, object) covers it (two grants ``SELECT (id)``
  and ``SELECT (a)`` allow ``SELECT id, a``);
* a view needs SELECT on the view only (its owner's rights read the body);
* creating an object needs CREATE on the database (``ON *`` here).

One kind of cell is pinned apart from that rule:

* ``system.*`` (``TestSystemViews``): the engine lets every session read
  the observability views, as ``pg_catalog`` is readable; the tools
  refuse them to a user who may not read every object, because
  ``system.statements`` shows other users' SQL text.

The view ``w`` names a column ``b`` that its source ``s`` lost after the
view was made. PostgreSQL refuses that DROP COLUMN; minidb keeps the view,
authorizes the statement and then refuses the name (42703) — it must never
read the *caller's* ``t.b`` instead.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core import MinidbBinding, SecurityPolicy, SecurityViolation, SqlVerifier
from repro.minidb import Database, PermissionDenied
from repro.minidb.errors import MiniDBError

SCHEMA = (
    "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT);"
    "CREATE TABLE s (id INT PRIMARY KEY, a INT, x INT);"
    "INSERT INTO t VALUES (1, 1, 1), (2, 2, 2);"
    "INSERT INTO s VALUES (1, 1, 1);"
    "CREATE VIEW v AS SELECT id, a FROM t;"
    # a body that bound when the view was made, until its column went
    "ALTER TABLE s ADD COLUMN b INT;"
    "CREATE VIEW w AS SELECT id FROM s WHERE b = 1;"
    "ALTER TABLE s DROP COLUMN b"
)

#: grant shape -> the GRANT statements the owner runs for user ``u``
SHAPES = {
    "none": (),
    "table": ("GRANT SELECT ON t TO u",),
    "cols": ("GRANT SELECT (id, a) ON t TO u",),
    "split": ("GRANT SELECT (id) ON t TO u", "GRANT SELECT (a) ON t TO u"),
    "public": ("GRANT SELECT (id) ON t TO u", "GRANT SELECT (a) ON t TO PUBLIC"),
    "star": ("GRANT SELECT ON * TO u",),
    "update_col": ("GRANT UPDATE (b) ON t TO u", "GRANT SELECT (id) ON t TO u"),
    "update_split": (
        "GRANT UPDATE (a) ON t TO u",
        "GRANT UPDATE (b) ON t TO u",
        "GRANT SELECT (id) ON t TO u",
    ),
    "all": ("GRANT ALL ON t TO u",),
    "create": ("GRANT CREATE ON * TO u",),
    "views": (
        "GRANT SELECT ON v TO u",
        "GRANT SELECT ON w TO u",
        "GRANT SELECT (id) ON t TO u",
    ),
    "s_and_id": ("GRANT SELECT ON s TO u", "GRANT SELECT (id) ON t TO u"),
}

#: id -> (statement, its tool, the shapes under which PostgreSQL allows it)
STATEMENTS = {
    "col": (
        "SELECT id FROM t",
        "SELECT",
        {"table", "cols", "split", "public", "star", "update_col", "update_split",
         "all", "views", "s_and_id"},
    ),
    "two_cols": (
        "SELECT id, a FROM t",
        "SELECT",
        {"table", "cols", "split", "public", "star", "all"},
    ),
    "star": ("SELECT * FROM t", "SELECT", {"table", "star", "all"}),
    "count": (
        "SELECT COUNT(*) FROM t",
        "SELECT",
        {"table", "cols", "split", "public", "star", "update_col", "update_split",
         "all", "views", "s_and_id"},
    ),
    "one": (
        "SELECT 1 FROM t",
        "SELECT",
        {"table", "cols", "split", "public", "star", "update_col", "update_split",
         "all", "views", "s_and_id"},
    ),
    "count_where": (
        "SELECT COUNT(*) FROM t WHERE b = 1", "SELECT", {"table", "star", "all"}
    ),
    "where": ("SELECT id FROM t WHERE b = 1", "SELECT", {"table", "star", "all"}),
    "update": (
        "UPDATE t SET b = 0 WHERE id = 1",
        "UPDATE",
        {"update_col", "update_split", "all"},
    ),
    "update_two": (
        "UPDATE t SET a = 0, b = 0 WHERE id = 1",
        "UPDATE",
        {"update_split", "all"},
    ),
    "insert": ("INSERT INTO t (id, a) VALUES (9, 9)", "INSERT", {"all"}),
    "delete_all": ("DELETE FROM t", "DELETE", {"all"}),
    "view": ("SELECT * FROM v", "SELECT", {"star", "views"}),
    "create": ("CREATE TABLE n (x INT)", "CREATE", {"create"}),
    # correlated references (the shapes of the column-grant bypass)
    "scalar_sub": (
        "SELECT id, (SELECT t.a FROM s WHERE s.id = 1) FROM t",
        "SELECT",
        {"star"},
    ),
    "exists_sub": (
        "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.x = b)",
        "SELECT",
        {"star"},
    ),
    # views (the shapes of the view-body bypass)
    "view_join": ("SELECT v.a FROM v JOIN s ON s.id = v.id", "SELECT", {"star"}),
    "broken_view": (
        "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM w)",
        "SELECT",
        {"star", "views"},
    ),
}

#: statements whose authorized run is refused by name, not by privilege
NAME_ERRORS = {"broken_view": "UnknownColumnError"}

ALLOW, DENY = "allow", "deny"


def database(shape: str) -> Database:
    db = Database(owner="admin")
    admin = db.connect("admin")
    admin.execute_script(SCHEMA)
    db.create_user("u")
    for grant in SHAPES[shape]:
        admin.execute(grant)
    return db


def tool_verdict(db: Database, sql: str, action: str) -> str:
    """``deny`` is the verifier's refusal; a ``PermissionDenied`` here means
    the engine refused what the verifier let through."""
    binding = MinidbBinding.for_user(db, "u")
    try:
        SqlVerifier(binding, SecurityPolicy.permissive()).verify(sql, action)
        binding.run_sql(sql)
    except SecurityViolation:
        return DENY
    except MiniDBError as exc:
        return type(exc).__name__
    return ALLOW


def engine_verdict(db: Database, sql: str) -> str:
    try:
        db.connect("u").execute(sql)
    except PermissionDenied:
        return DENY
    except MiniDBError as exc:
        return type(exc).__name__
    return ALLOW


def expected(shape: str, statement: str) -> str:
    _, _, allowed = STATEMENTS[statement]
    if shape not in allowed:
        return DENY
    return NAME_ERRORS.get(statement, ALLOW)


@pytest.mark.parametrize(
    "shape,statement", list(itertools.product(SHAPES, STATEMENTS))
)
def test_tool_and_engine_give_postgresql_verdict(shape, statement):
    sql, action, _ = STATEMENTS[statement]
    want = expected(shape, statement)
    assert tool_verdict(database(shape), sql, action) == want
    assert engine_verdict(database(shape), sql) == want


class TestSystemViews:
    SQL = "SELECT sql FROM system.statements"

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_engine_reads_them_for_everyone(self, shape):
        assert engine_verdict(database(shape), self.SQL) == ALLOW

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_tools_need_select_on_every_object(self, shape):
        want = ALLOW if shape == "star" else DENY
        assert tool_verdict(database(shape), self.SQL, "SELECT") == want

    def test_tools_let_the_owner_read_them(self):
        binding = MinidbBinding.for_user(database("none"), "admin")
        SqlVerifier(binding, SecurityPolicy.permissive()).verify(self.SQL, "SELECT")
        assert binding.run_sql(self.SQL).columns == ["sql"]


class TestRaceBetweenVerifyAndRun:
    """Another session's change lands after ``verify`` accepted a statement
    and before ``run_sql`` runs it: the engine authorizes and binds again."""

    def verified(self, shape: str, sql: str):
        db = database(shape)
        binding = MinidbBinding.for_user(db, "u")
        SqlVerifier(binding, SecurityPolicy.permissive()).verify(sql, "SELECT")
        return db, binding

    def test_revoke_refuses_the_run(self):
        db, binding = self.verified("table", "SELECT id, a FROM t")
        db.connect("admin").execute("REVOKE SELECT ON t FROM u")
        with pytest.raises(PermissionDenied):
            binding.run_sql("SELECT id, a FROM t")

    def test_column_revoke_refuses_the_run(self):
        db, binding = self.verified("split", "SELECT id, a FROM t")
        db.connect("admin").execute("REVOKE SELECT (a) ON t FROM u")
        with pytest.raises(PermissionDenied):
            binding.run_sql("SELECT id, a FROM t")

    def test_drop_column_refuses_the_run(self):
        db, binding = self.verified("table", "SELECT id, b FROM t")
        db.connect("admin").execute("ALTER TABLE t DROP COLUMN b")
        with pytest.raises(MiniDBError) as refused:
            binding.run_sql("SELECT id, b FROM t")
        assert refused.value.code == "42703"
