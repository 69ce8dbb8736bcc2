"""Live ≡ recovered, over every kind of change the engine can make.

The durable engine promises that the database an agent sees after a crash
or a ROLLBACK is the database it had. These properties hold the write path
to that over random histories drawn from *all* change kinds (row DML, table
/ column / index / view DDL, ANALYZE, privileges) — in and out of
``BEGIN … COMMIT | ROLLBACK``, with savepoints, a checkpoint at a random
point and statements that fail (PK / CHECK / FK violations, duplicate or
missing objects):

(a) drop the engine without ``close()`` and reopen: the snapshot payload
    of the reopened database equals the live one's — schemas, index
    definitions, rows, rid counters, uids, views, privileges, statistics —
    with each heap's counters (``version``, ``next_rid``) recovered ≤
    live, and equal when nothing was rolled back (rolled-back work moves
    the live counters without reaching the WAL);
(b) the same history with every block rolled back leaves the payload of
    the starting state, counters aside (privilege changes are not
    transactional and are left out of the comparison).

The payload must also be self-consistent: every foreign key, index and
statistics entry names a table that exists.
"""

from __future__ import annotations

import gc
import json
import re
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.minidb import Database, MiniDBError, changes

SETUP = (
    "CREATE TABLE p (id INT PRIMARY KEY, name TEXT, qty INT DEFAULT 0 "
    "CHECK (qty >= 0))",
    "CREATE TABLE c (id INT PRIMARY KEY, pid INT REFERENCES p(id), note TEXT)",
    "INSERT INTO p VALUES (1, 'a', 1), (2, 'b', 2), (3, 'c', 3)",
    "INSERT INTO c VALUES (1, 1, 'x'), (2, 2, 'y')",
    "CREATE INDEX p_qty ON p USING BTREE (qty)",
    "CREATE VIEW v AS SELECT id, name FROM p WHERE qty > 0",
    "ANALYZE p",
    "CREATE USER u1",
)

_ID = st.integers(0, 5)
_QTY = st.integers(-1, 3)  # -1 violates p's CHECK
_NAME = st.sampled_from(["a", "b", "zz"])
_DML_TABLE = st.sampled_from(["p", "c", "t1"])
_NEW_TABLE = st.sampled_from(["t1", "t2"])
_ANY_TABLE = st.sampled_from(["p", "c", "t1", "t2", "p2"])
_INDEX = st.sampled_from(["ix1", "ix2", "p_qty"])
_VIEW = st.sampled_from(["v", "v2"])
_USER = st.sampled_from(["u1", "u2", "ghost"])
_ACTIONS = st.sampled_from(["SELECT", "INSERT, UPDATE", "ALL", "SELECT (id)"])
_OBJECTS = st.sampled_from(["p", "c, p", "*", "t1", "p, nosuch", "v"])
_IF_EXISTS = st.sampled_from(["", "IF EXISTS "])
_IF_NOT_EXISTS = st.sampled_from(["", "IF NOT EXISTS "])


def _sql(template: str, *parts: st.SearchStrategy) -> st.SearchStrategy:
    return st.builds(template.format, *parts)


#: statement strategies by the change kind they log when they succeed; the
#: keys are checked against ``changes.OPS`` so a new kind cannot arrive
#: without a generator
STATEMENTS = {
    "insert": st.one_of(
        _sql("INSERT INTO p (id, name, qty) VALUES ({}, '{}', {})", _ID, _NAME, _QTY),
        _sql("INSERT INTO c (id, pid) VALUES ({}, {})", _ID, _ID),
        _sql("INSERT INTO t1 VALUES ({}, {}), ({}, {})", _ID, _ID, _ID, _ID),
    ),
    "update": st.one_of(
        _sql("UPDATE p SET qty = qty + {} WHERE id <= {}", _QTY, _ID),
        _sql("UPDATE p SET id = {} WHERE id = {}", _ID, _ID),
        _sql("UPDATE c SET pid = {} WHERE id = {}", _ID, _ID),
        _sql("UPDATE t1 SET x = {} WHERE id = {}", _ID, _ID),
    ),
    "delete": st.one_of(
        _sql("DELETE FROM {} WHERE id = {}", _DML_TABLE, _ID),
        _sql("DELETE FROM {} WHERE id >= {}", _DML_TABLE, _ID),
    ),
    "create_table": st.one_of(
        _sql("CREATE TABLE {}{} (id INT PRIMARY KEY, x INT UNIQUE)",
             _IF_NOT_EXISTS, _NEW_TABLE),
        st.just("CREATE TABLE t2 (id INT PRIMARY KEY, tid INT REFERENCES t1(id))"),
    ),
    "drop_table": _sql("DROP TABLE {}{}{}", _IF_EXISTS, _ANY_TABLE,
                       st.sampled_from(["", " CASCADE"])),
    "add_column": st.one_of(
        _sql("ALTER TABLE {} ADD COLUMN extra INT DEFAULT 7", _ANY_TABLE),
        _sql("ALTER TABLE {} ADD COLUMN extra TEXT NOT NULL", _ANY_TABLE),
    ),
    "drop_column": _sql("ALTER TABLE {} DROP COLUMN {}", _ANY_TABLE,
                        st.sampled_from(["extra", "extra2", "name", "x", "id"])),
    "rename_column": _sql(
        "ALTER TABLE {} RENAME COLUMN {}", _ANY_TABLE,
        st.sampled_from(["extra TO extra2", "extra2 TO extra", "note TO memo",
                         "id TO key", "key TO id", "qty TO name"]),
    ),
    "rename_table": st.sampled_from([
        "ALTER TABLE p RENAME TO p2", "ALTER TABLE p2 RENAME TO p",
        "ALTER TABLE t1 RENAME TO t2", "ALTER TABLE t2 RENAME TO t1",
        "ALTER TABLE c RENAME TO p",
    ]),
    "create_index": _sql(
        "CREATE {}INDEX {}{} ON {} {}({})",
        st.sampled_from(["", "UNIQUE "]), _IF_NOT_EXISTS, _INDEX, _ANY_TABLE,
        st.sampled_from(["", "USING BTREE "]),
        st.sampled_from(["name", "qty", "pid", "x", "id, x"]),
    ),
    "drop_index": _sql("DROP INDEX {}{}", _IF_EXISTS, _INDEX),
    "create_view": _sql(
        "CREATE {}VIEW {} AS SELECT id FROM {}",
        st.sampled_from(["", "OR REPLACE "]), _VIEW, _ANY_TABLE,
    ),
    "drop_view": st.one_of(
        _sql("DROP VIEW {}{}", _IF_EXISTS, _VIEW), _sql("DROP TABLE {}", _VIEW)
    ),
    "grant": _sql("GRANT {} ON {} TO {}", _ACTIONS, _OBJECTS, _USER),
    "revoke": _sql("REVOKE {} ON {} FROM {}", _ACTIONS, _OBJECTS, _USER),
    "create_user": _sql("CREATE USER {}", st.sampled_from(["u1", "u2", "u3"])),
    "analyze": _sql("ANALYZE{}", st.sampled_from(["", " p", " c", " t1", " p2"])),
}

_SAVEPOINT_CONTROL = st.sampled_from([
    "SAVEPOINT s1", "SAVEPOINT s2", "ROLLBACK TO s1", "ROLLBACK TO s2",
    "RELEASE s1",
])
_BLOCKS = st.lists(
    st.tuples(
        st.sampled_from(["autocommit", "COMMIT", "ROLLBACK"]),
        st.lists(
            # row DML listed twice: most histories should move rows
            st.one_of(*STATEMENTS.values(), STATEMENTS["insert"],
                      STATEMENTS["update"], STATEMENTS["delete"],
                      _SAVEPOINT_CONTROL),
            min_size=1, max_size=6,
        ),
    ),
    min_size=1, max_size=6,
)


def run(db: Database, session, statement: str) -> bool:
    """Execute one statement; ``False`` when it failed the way a statement
    may (anything that is not a ``MiniDBError`` is an engine bug and
    propagates)."""
    try:
        if statement.startswith("CREATE USER "):  # an API call, not SQL
            db.create_user(statement.split()[-1])
        else:
            session.execute(statement)
    except MiniDBError:
        return False
    return True


def run_history(db: Database, blocks, end_blocks_with=None, checkpoint_at=-1):
    """Run ``blocks``; returns whether anything was rolled back. With
    ``end_blocks_with`` every block becomes an explicit transaction ended
    that way."""
    session = db.connect("admin")
    rolled_back = False
    for number, (ending, statements) in enumerate(blocks):
        if number == checkpoint_at:
            db.checkpoint()
        ending = end_blocks_with or ending
        if ending != "autocommit":
            session.execute("BEGIN")
        for statement in statements:
            failed = not run(db, session, statement)
            rolled_back |= failed or statement.startswith("ROLLBACK TO")
        if ending != "autocommit":
            session.execute(ending)
            rolled_back |= ending == "ROLLBACK"
    return rolled_back


def start(path: str) -> Database:
    db = Database.open(path)
    session = db.connect("admin")
    for statement in SETUP:
        assert run(db, session, statement), statement
    return db


def payload(db: Database) -> tuple[dict, dict]:
    """``(state, counters)``: what a checkpoint of ``db`` would write,
    with every by-name collection ordered (catalog dict order differs
    after a rolled-back DROP re-adds an entry) and each heap's
    ``(version, next_rid)`` split off."""
    engine = db.engine
    with engine._commit_mutex:
        state = json.loads(json.dumps(engine._snapshot_payload(db)))
    state["tables"].sort(key=lambda table: table["schema"]["name"])
    for table in state["tables"]:
        table["indexes"].sort(key=lambda index: index["name"])
    for key in ("views", "indexes"):
        state[key].sort(key=lambda entry: entry["name"])
    state["statistics"].sort(key=lambda entry: entry["table"])
    for grants in state["privileges"]["users"].values():
        grants.sort(key=str)
    counters = {
        table["schema"]["name"]: (table.pop("version"), table.pop("next_rid"))
        for table in state["tables"]
    }
    return state, counters


def assert_self_consistent(state: dict) -> None:
    tables = {table["schema"]["name"].lower(): table for table in state["tables"]}
    for table in state["tables"]:
        for fk in table["schema"]["foreign_keys"]:
            assert fk["ref_table"].lower() in tables, (table["schema"]["name"], fk)
    for index in state["indexes"]:
        owner = tables[index["table"].lower()]
        assert index["name"] in [ix["name"] for ix in owner["indexes"]], index
    for entry in state["statistics"]:
        assert entry["table"].lower() in tables, entry["table"]


def reopen_after_crash(path: str) -> Database:
    """Open ``path`` again after the caller dropped its database without
    ``close()`` — the WAL is all a crashed process leaves."""
    gc.collect()  # the dropped engine's LOCK descriptor closes with it
    return Database.open(path)


# what the property found at d3e43a4, before ``changes.py`` existed
_FOUND = (
    # granted p live, wrote no record: gone after reopen
    [("autocommit", ["GRANT SELECT ON p, nosuch TO u1"])],
    # c's foreign key kept naming p
    [("autocommit", ["ALTER TABLE p RENAME TO p2"])],
    # p's ANALYZE statistics did not come back with the table
    [("ROLLBACK", ["DROP TABLE p CASCADE"])],
)


@settings(max_examples=60, deadline=None)
@given(blocks=_BLOCKS, checkpoint_at=st.integers(0, 6))
@example(blocks=_FOUND[0], checkpoint_at=0)
@example(blocks=_FOUND[1], checkpoint_at=0)
@example(blocks=_FOUND[2], checkpoint_at=0)
def test_recovered_database_equals_live(blocks, checkpoint_at):
    with tempfile.TemporaryDirectory() as path:
        db = start(path)
        rolled_back = run_history(db, blocks, checkpoint_at=checkpoint_at)
        live, live_counters = payload(db)
        assert_self_consistent(live)

        del db
        db = reopen_after_crash(path)
        recovered, counters = payload(db)
        assert recovered == live
        for table, (version, next_rid) in counters.items():
            assert version <= live_counters[table][0], table
            assert next_rid <= live_counters[table][1], table
        if not rolled_back:
            assert counters == live_counters

        # and a checkpoint of the recovered database holds all of it
        db.checkpoint()
        db.close()
        db = Database.open(path)
        assert db.engine.stats["wal_replayed"] == 0
        assert payload(db) == (recovered, counters)
        db.close()


def _transactional(state: dict) -> dict:
    return {
        key: value
        for key, value in state.items()
        if key not in ("privileges", "applied_seq")
    }


@settings(max_examples=60, deadline=None)
@given(blocks=_BLOCKS)
@example(blocks=_FOUND[2])
def test_rolled_back_history_leaves_the_starting_state(blocks):
    with tempfile.TemporaryDirectory() as path:
        db = start(path)
        db.checkpoint()
        before = _transactional(payload(db)[0])
        run_history(db, blocks, end_blocks_with="ROLLBACK")
        assert _transactional(payload(db)[0]) == before
        del db
        db = reopen_after_crash(path)
        assert _transactional(payload(db)[0]) == before
        db.close()


def test_every_change_kind_is_generated_and_documented():
    # rows of the record-schema table: ``op`` padded out to the fields column
    documented = re.findall(r"^``(\w+)`` {2,}", changes.__doc__, flags=re.MULTILINE)
    assert sorted(documented) == sorted(changes.OPS) == sorted(STATEMENTS)
