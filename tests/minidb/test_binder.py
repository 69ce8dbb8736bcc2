"""Witnesses for the binder: every name is resolved once, before any row.

``analysis.analyze`` binds each column reference of a statement to a slot
in the nearest block that exposes it — a view's body on its own, with no
outer scope — and records the first name error, which the executor raises
before it reads a row. Each witness below is a statement the engine got
wrong while names were resolved at run time, against whatever scope was
around:

* a view whose body names a column its own sources lack was accepted, and
  at run time read the *caller's* column of that name — a column the
  caller's user had no grant on;
* ``SELECT * FROM t x, u x`` crashed with a bare ``KeyError``;
* a name that binds nowhere raised only once a row reached it, so over an
  empty table a wrong statement "succeeded";
* a CHECK naming a column its table lacks was accepted until the first
  INSERT.
"""

import pytest

from repro.minidb import Database
from repro.minidb.errors import (
    DuplicateAliasError,
    PermissionDenied,
    UnknownColumnError,
)


@pytest.fixture
def db():
    database = Database(owner="admin")
    database.connect("admin").execute_script(
        "CREATE TABLE t2 (id INT PRIMARY KEY, zz INT);"
        "INSERT INTO t2 VALUES (10, 1);"
        "CREATE TABLE e (x INT);"
        "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);"
        "CREATE TABLE u (b INT); INSERT INTO u VALUES (2)"
    )
    database.create_user("reader")
    return database


class TestViewsReadOnlyTheirOwnSources:
    def test_a_view_naming_a_column_its_sources_lack_is_refused(self, db):
        admin = db.connect("admin")
        admin.execute("INSERT INTO e VALUES (5)")
        with pytest.raises(UnknownColumnError, match="zz") as caught:
            admin.execute("CREATE VIEW v AS SELECT x FROM e WHERE zz = 1")
        assert caught.value.code == "42703"
        assert not db.catalog.has_view("v")

    def test_no_grant_reads_the_callers_column_through_a_view(self, db):
        admin = db.connect("admin")
        admin.execute("INSERT INTO e VALUES (5)")
        # a body that was valid when the view was made, until its column went
        admin.execute("ALTER TABLE e ADD COLUMN zz INT")
        admin.execute("CREATE VIEW v AS SELECT x FROM e WHERE zz = 1")
        admin.execute("ALTER TABLE e DROP COLUMN zz")
        admin.execute("GRANT SELECT (id) ON t2 TO reader")
        admin.execute("GRANT SELECT ON v TO reader")
        reader = db.connect("reader")
        with pytest.raises(PermissionDenied):
            reader.execute("SELECT id FROM t2 WHERE zz = 1")
        for session in (reader, admin):
            with pytest.raises(UnknownColumnError, match="zz"):
                session.execute("SELECT id FROM t2 WHERE EXISTS (SELECT 1 FROM v)")


def test_an_alias_used_twice_is_refused_not_a_crash(db):
    with pytest.raises(DuplicateAliasError, match='table name "x" specified more than once'):
        db.connect("admin").execute("SELECT * FROM t x, u x")


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT x FROM e WHERE a = 1",
        "SELECT x FROM e WHERE nosuch = 1",
        "UPDATE e SET x = nosuch",
        "SELECT x FROM e ORDER BY nosuch",
        "DELETE FROM e WHERE EXISTS (SELECT 1 FROM t WHERE nosuch = t.a)",
    ],
)
def test_a_name_error_needs_no_row(db, sql):
    admin = db.connect("admin")
    with pytest.raises(UnknownColumnError) as caught:
        admin.execute(sql)
    assert caught.value.code == "42703"


def test_a_check_naming_an_unknown_column_is_refused_when_created(db):
    admin = db.connect("admin")
    with pytest.raises(UnknownColumnError, match="zz"):
        admin.execute("CREATE TABLE c (a INT CHECK (zz > 0))")
    assert not db.catalog.has_table("c")
    admin.execute("CREATE TABLE c (a INT CHECK (a > 0))")
    admin.execute("INSERT INTO c VALUES (1)")


@pytest.mark.parametrize("qualifier", ["zz", "u"])
def test_a_set_operations_order_by_names_a_source_of_an_operand(db, qualifier):
    # zz names nothing and u is a table outside the statement: neither may
    # key the union's output column a (nor claim SELECT on t for it)
    admin = db.connect("admin")
    sql = f"SELECT * FROM t UNION SELECT * FROM t ORDER BY {qualifier}.a"
    with pytest.raises(UnknownColumnError) as caught:
        admin.execute(sql)
    assert caught.value.code == "42703"
    assert admin.execute("SELECT * FROM t UNION SELECT * FROM t ORDER BY t.a").rows == [(1,)]
    assert admin.execute("SELECT a FROM t UNION SELECT b FROM u x ORDER BY x.a").rows == [(1,), (2,)]
