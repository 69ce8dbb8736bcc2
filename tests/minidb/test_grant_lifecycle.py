"""Grants follow their object, as in PostgreSQL.

A grant names a table, view or column. When the object is dropped its
grants go with it, and a rename carries them to the new name, so a later
object that reuses a name does not inherit them. Each probe is checked on
the live database, after the directory is reopened (WAL replay, then a
checkpoint), and under ``BEGIN … ROLLBACK``, which must give back exactly
the grants the DDL took. A GRANT or REVOKE naming an object another
session's open transaction changed waits for it (the two-session
witnesses), so the WAL holds the two in the order they took effect.
"""

import tempfile
import threading
import time

import pytest

from repro.minidb import Database, PermissionDenied
from repro.minidb.errors import TransactionError
from repro.minidb.privileges import PrivilegeManager
from repro.service import LockManager

SETUP = (
    "CREATE TABLE t (id INT)",
    "CREATE TABLE s (a INT, b INT)",
    "CREATE TABLE r (id INT)",
    "CREATE VIEW v AS SELECT id FROM t",
    "GRANT SELECT ON t TO u",
    "GRANT SELECT (b) ON s TO u",
    "GRANT SELECT ON r TO u",
    "GRANT SELECT ON v TO u",
)

#: probe name -> (DDL after SETUP, {query u runs: may u run it})
PROBES = {
    "drop_table": (
        ["DROP VIEW v", "DROP TABLE t", "CREATE TABLE t (secret INT)"],
        {"SELECT secret FROM t": False},
    ),
    "drop_column": (
        ["ALTER TABLE s DROP COLUMN b", "ALTER TABLE s ADD COLUMN b INT"],
        {"SELECT b FROM s": False},
    ),
    "rename_table": (
        ["ALTER TABLE r RENAME TO r2", "CREATE TABLE r (secret INT)"],
        {"SELECT id FROM r2": True, "SELECT secret FROM r": False},
    ),
    "rename_column": (
        ["ALTER TABLE s RENAME COLUMN b TO c", "ALTER TABLE s ADD COLUMN b INT"],
        {"SELECT c FROM s": True, "SELECT b FROM s": False},
    ),
    "drop_view": (
        ["DROP VIEW v", "CREATE VIEW v AS SELECT 1 AS secret"],
        {"SELECT secret FROM v": False},
    ),
}

#: what u may read once every probe's DDL is rolled back
BEFORE = {
    "SELECT id FROM t": True,
    "SELECT b FROM s": True,
    "SELECT a FROM s": False,
    "SELECT id FROM r": True,
    "SELECT id FROM v": True,
}


def may(db: Database, query: str, user: str = "u") -> bool:
    try:
        db.connect(user).execute(query)
    except PermissionDenied:
        return False
    return True


def verdicts(db: Database, queries) -> dict[str, bool]:
    return {query: may(db, query) for query in queries}


def start(path: str) -> Database:
    db = Database.open(path)
    db.create_user("u")
    admin = db.connect("admin")
    for statement in SETUP:
        admin.execute(statement)
    return db


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_grants_follow_their_object(probe):
    ddl, expected = PROBES[probe]
    with tempfile.TemporaryDirectory() as path:
        db = start(path)
        admin = db.connect("admin")
        for statement in ddl:
            admin.execute(statement)
        assert verdicts(db, expected) == expected, "live"
        grants = db.privileges.grants_of("u")
        db.close()

        db = Database.open(path)  # replays the WAL
        assert verdicts(db, expected) == expected, "replayed"
        assert db.privileges.grants_of("u") == grants
        db.checkpoint()
        db.close()

        db = Database.open(path)  # reads the snapshot
        assert db.engine.stats["wal_replayed"] == 0
        assert db.privileges.grants_of("u") == grants
        db.close()


def test_rollback_gives_the_grants_back():
    with tempfile.TemporaryDirectory() as path:
        db = start(path)
        grants = db.privileges.grants_of("u")
        admin = db.connect("admin")
        admin.execute("BEGIN")
        for probe in sorted(PROBES):
            for statement in PROBES[probe][0]:
                if statement == "DROP VIEW v" and probe != "drop_table":
                    continue  # dropped once, by the first probe
                admin.execute(statement)
        admin.execute("ROLLBACK")
        assert db.privileges.grants_of("u") == grants  # order too
        assert verdicts(db, BEFORE) == BEFORE
        db.close()

        db = Database.open(path)
        assert db.privileges.grants_of("u") == grants
        assert verdicts(db, BEFORE) == BEFORE
        db.close()


def test_savepoint_rollback_gives_back_only_its_own_part():
    db = Database(owner="admin")
    db.create_user("u")
    admin = db.connect("admin")
    for statement in SETUP:
        admin.execute(statement)
    admin.execute("BEGIN")
    admin.execute("ALTER TABLE r RENAME TO r2")
    admin.execute("SAVEPOINT s1")
    admin.execute("ALTER TABLE s DROP COLUMN b")
    admin.execute("ROLLBACK TO s1")
    admin.execute("COMMIT")
    assert verdicts(db, ["SELECT id FROM r2", "SELECT b FROM s"]) == {
        "SELECT id FROM r2": True,
        "SELECT b FROM s": True,
    }


def test_grant_and_revoke_refused_after_changes_in_a_block():
    """A privilege change reaches the WAL when it runs, the block's changes
    at COMMIT; after a DROP or RENAME in the block, replay would apply the
    two in the other order."""
    with tempfile.TemporaryDirectory() as path:
        db = start(path)
        admin = db.connect("admin")
        admin.execute("BEGIN")
        admin.execute("GRANT SELECT ON s TO u")  # nothing changed yet: runs
        admin.execute("ALTER TABLE r RENAME TO r2")
        for statement in ("GRANT SELECT ON r2 TO u", "REVOKE SELECT ON r2 FROM u"):
            with pytest.raises(TransactionError):
                admin.execute(statement)
        admin.execute("COMMIT")
        grants = db.privileges.grants_of("u")
        assert may(db, "SELECT a FROM s") and may(db, "SELECT id FROM r2")
        db.close()

        db = Database.open(path)
        assert db.privileges.grants_of("u") == grants
        db.close()


def test_undo_restores_each_grant_in_its_place():
    privileges = PrivilegeManager("admin")
    for action in ("SELECT", "INSERT", "UPDATE"):
        for obj in ("x", "y"):
            privileges.grant("u", action, obj)
    privileges.grant("u", "SELECT", "x", ["a", "b"])
    before = privileges.grants_of("u")
    undos = [
        privileges.follow_column("x", "a", None),
        privileges.follow_object("y", "z"),
        privileges.follow_object("x", None),
    ]
    assert [(g.action, g.obj) for g in privileges.grants_of("u")] == [
        ("SELECT", "z"), ("INSERT", "z"), ("UPDATE", "z"),
    ]
    for undo in reversed(undos):
        undo()
    assert privileges.grants_of("u") == before


def run_behind(session, statement: str, lock_manager) -> threading.Thread:
    """Start ``statement`` on ``session`` in a thread and return once it
    has finished or waits for a lock."""
    failures: list[BaseException] = []

    def run() -> None:
        try:
            session.execute(statement)
        except Exception as exc:  # handed to the joining test
            failures.append(exc)

    thread = threading.Thread(target=run)
    thread.failures = failures
    thread.start()
    deadline = time.monotonic() + 5
    while thread.is_alive() and not lock_manager.waiting_count():
        assert time.monotonic() < deadline, f"{statement} neither ran nor waited"
        time.sleep(0.001)
    return thread


@pytest.mark.parametrize(
    "ddl,statement,expected",
    [
        (
            "ALTER TABLE r RENAME TO r2",
            "REVOKE SELECT ON r2 FROM u",
            {"SELECT id FROM r2": False},
        ),
        (
            "ALTER TABLE r RENAME TO r2",
            "GRANT SELECT ON r2 TO v",
            {"SELECT id FROM r2": True},
        ),
        (
            "DROP TABLE r",
            "REVOKE SELECT ON r FROM u",
            {},
        ),
    ],
)
def test_privilege_change_waits_for_open_ddl_on_its_object(ddl, statement, expected):
    """``A: BEGIN; <DDL>`` / ``B: GRANT or REVOKE on the object`` /
    ``A: COMMIT``: B waits for A's X lock, so the WAL holds A's change
    first and a reopened directory grants what the live one did."""
    with tempfile.TemporaryDirectory() as path:
        db = start(path)
        db.create_user("v")
        db.lock_manager = LockManager(timeout_s=10.0)
        a, b = db.connect("admin"), db.connect("admin")
        a.execute("BEGIN")
        a.execute(ddl)
        behind = run_behind(b, statement, db.lock_manager)
        a.execute("COMMIT")
        behind.join(timeout=10)
        assert not behind.is_alive()
        assert not behind.failures
        user = "v" if " TO v" in statement else "u"
        live = {q: may(db, q, user) for q in expected}
        grants = {name: db.privileges.grants_of(name) for name in ("u", "v")}
        assert live == expected
        db.close()

        db = Database.open(path)  # replays the WAL in the order it was written
        assert {name: db.privileges.grants_of(name) for name in ("u", "v")} == grants
        assert {q: may(db, q, user) for q in expected} == expected
        db.close()


def test_grant_waits_for_an_uncommitted_create():
    """A GRANT on a table another session created in a block it then
    rolls back finds no table, live and after a reopen."""
    with tempfile.TemporaryDirectory() as path:
        db = start(path)
        db.lock_manager = LockManager(timeout_s=10.0)
        a, b = db.connect("admin"), db.connect("admin")
        a.execute("BEGIN")
        a.execute("CREATE TABLE fresh (id INT)")
        behind = run_behind(b, "GRANT SELECT ON fresh TO u", db.lock_manager)
        a.execute("ROLLBACK")
        behind.join(timeout=10)
        assert not behind.is_alive()
        assert [type(e).__name__ for e in behind.failures] == ["MiniDBError"]
        a.execute("CREATE TABLE fresh (secret INT)")
        assert not may(db, "SELECT secret FROM fresh")
        db.close()

        db = Database.open(path)
        assert not may(db, "SELECT secret FROM fresh")
        db.close()
