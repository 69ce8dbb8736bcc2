"""Durable storage engine: WAL + snapshot persistence and crash recovery.

Covers the PR-3 tentpole contract end to end:

* kill-and-reopen round trips restore tables, rows, secondary indexes,
  views, users/grants, rid counters, and ``(uid, version)`` change
  counters exactly;
* rolled-back transactions never reach disk;
* a torn final WAL record (crash mid-append) is detected and truncated,
  never half-applied — verified at *every byte boundary* of the final
  record, against an independent shadow replay of the WAL;
* checkpoints compact the WAL atomically and refuse to run while a
  transaction holds uncommitted changes in the heaps.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.faults import OS_FILESYSTEM
from repro.minidb import (
    Database,
    MiniDBError,
    PersistenceError,
    TransactionError,
    UniqueViolation,
    changes,
)
from test_change_log import run as run_statement


def reopen(path: str) -> Database:
    return Database.open(path)


@pytest.fixture
def dbdir(tmp_path):
    return str(tmp_path / "db")


#: holds a database directory open from another process until killed
HOLDER = """\
import sys
from repro.minidb import Database
db = Database.open(sys.argv[1])
db.connect("admin").execute("INSERT INTO items VALUES (3, 'gamma', 9)")
print("ready", flush=True)
sys.stdin.read()
"""


def spawn(source: str, *args: str) -> subprocess.Popen:
    """A Python child running ``source``, blocked on its stdin."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    return subprocess.Popen(
        [sys.executable, "-c", source, *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )


def seeded(path: str) -> Database:
    db = Database.open(path)
    session = db.connect("admin")
    session.execute(
        "CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT DEFAULT 0)"
    )
    session.execute(
        "INSERT INTO items VALUES (1, 'alpha', 5), (2, 'beta', 7)"
    )
    return db


class TestRoundTrip:
    def test_rows_and_schema_survive_reopen(self, dbdir):
        db = seeded(dbdir)
        expected = db.snapshot()
        db.close()
        db2 = reopen(dbdir)
        assert db2.snapshot() == expected
        schema = db2.catalog.table("items")
        assert schema.column_names() == ["id", "name", "qty"]
        assert schema.primary_key == ("id",)
        assert schema.column("qty").default == 0

    def test_counters_restored_exactly(self, dbdir):
        db = seeded(dbdir)
        heap = db.heap("items")
        uid, version, next_rid = heap.uid, heap.version, heap._next_rid
        db.close()
        heap2 = reopen(dbdir).heap("items")
        assert (heap2.uid, heap2.version, heap2._next_rid) == (
            uid, version, next_rid,
        )

    def test_crash_without_close_is_durable(self, dbdir):
        db = seeded(dbdir)
        expected = db.snapshot()
        del db  # simulated crash: no close(), no checkpoint
        assert reopen(dbdir).snapshot() == expected

    def test_rolled_back_transaction_not_durable(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        session.execute("BEGIN")
        session.execute("INSERT INTO items VALUES (3, 'ghost', 0)")
        session.execute("UPDATE items SET qty = 99 WHERE id = 1")
        session.execute("ROLLBACK")
        session.execute("INSERT INTO items VALUES (4, 'real', 1)")
        db.close()
        rows = reopen(dbdir).snapshot()["items"]
        names = [row["name"] for row in rows]
        assert "ghost" not in names
        assert "real" in names
        assert rows[0]["qty"] == 5

    def test_failed_statement_not_durable(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        with pytest.raises(UniqueViolation):
            # second row violates the PK: the whole statement rolls back
            session.execute(
                "INSERT INTO items VALUES (3, 'partial', 0), (1, 'dup', 0)"
            )
        db.close()
        names = [r["name"] for r in reopen(dbdir).snapshot()["items"]]
        assert "partial" not in names

    def test_savepoint_partial_rollback_durable(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        session.execute("BEGIN")
        session.execute("INSERT INTO items VALUES (3, 'kept', 0)")
        session.execute("SAVEPOINT sp")
        session.execute("INSERT INTO items VALUES (4, 'dropped', 0)")
        session.execute("ROLLBACK TO SAVEPOINT sp")
        session.execute("COMMIT")
        db.close()
        names = [r["name"] for r in reopen(dbdir).snapshot()["items"]]
        assert "kept" in names
        assert "dropped" not in names

    def test_secondary_indexes_rebuilt(self, dbdir):
        db = seeded(dbdir)
        db.connect("admin").execute("CREATE INDEX idx_name ON items (name)")
        db.close()
        db2 = reopen(dbdir)
        heap = db2.heap("items")
        assert set(heap.indexes) == {"pk_items", "idx_name"}
        assert heap.indexes["idx_name"].probe(("beta",)) == {2}
        assert db2.catalog.index("idx_name").columns == ("name",)
        # the index is live, not just cataloged: uniqueness still enforced
        with pytest.raises(UniqueViolation):
            db2.connect("admin").execute(
                "INSERT INTO items VALUES (1, 'clash', 0)"
            )

    def test_dropped_index_stays_dropped(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        session.execute("CREATE INDEX idx_name ON items (name)")
        session.execute("DROP INDEX idx_name")
        db.close()
        db2 = reopen(dbdir)
        assert set(db2.heap("items").indexes) == {"pk_items"}
        assert "idx_name" not in db2.catalog.indexes

    def test_views_roundtrip_through_sql(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        session.execute(
            "CREATE VIEW busy AS SELECT name, qty FROM items "
            "WHERE qty > 5 ORDER BY qty DESC"
        )
        session.execute(
            "CREATE VIEW stats AS SELECT COUNT(*) AS n, SUM(qty) AS total "
            "FROM items"
        )
        expected_busy = session.query("SELECT * FROM busy")
        expected_stats = session.query("SELECT * FROM stats")
        db.close()
        session2 = reopen(dbdir).connect("admin")
        assert session2.query("SELECT * FROM busy") == expected_busy
        assert session2.query("SELECT * FROM stats") == expected_stats

    def test_users_and_grants_survive(self, dbdir):
        db = seeded(dbdir)
        db.create_user("analyst")
        session = db.connect("admin")
        session.execute("GRANT SELECT (id, name) ON items TO analyst")
        db.close()
        db2 = reopen(dbdir)
        analyst = db2.connect("analyst")
        assert analyst.query("SELECT name FROM items WHERE id = 1") == [
            {"name": "alpha"}
        ]
        from repro.minidb import PermissionDenied

        with pytest.raises(PermissionDenied):
            analyst.execute("SELECT qty FROM items")

    def test_revoke_survives(self, dbdir):
        db = seeded(dbdir)
        db.create_user("analyst")
        session = db.connect("admin")
        session.execute("GRANT SELECT ON items TO analyst")
        session.execute("REVOKE SELECT ON items FROM analyst")
        db.close()
        from repro.minidb import PermissionDenied

        with pytest.raises(PermissionDenied):
            reopen(dbdir).connect("analyst").execute("SELECT id FROM items")

    def test_failed_multi_object_grant_grants_nothing(self, dbdir):
        """One GRANT is one record: it applies whole or not at all, live
        and after reopen alike."""
        db = seeded(dbdir)
        session = db.connect("admin")
        session.execute("CREATE TABLE t1 (id INT)")
        db.create_user("u")
        before = len(wal_bytes(dbdir).splitlines())
        with pytest.raises(MiniDBError, match="'nosuch' does not exist"):
            session.execute("GRANT SELECT ON t1, nosuch TO u")
        assert db.privileges.grants_of("u") == []
        session.execute("GRANT SELECT ON t1, items TO u")
        granted = db.privileges.grants_of("u")
        assert [(g.action, g.obj) for g in granted] == [
            ("SELECT", "t1"), ("SELECT", "items"),
        ]
        assert len(wal_bytes(dbdir).splitlines()) == before + 1
        db.close()
        assert reopen(dbdir).privileges.grants_of("u") == granted

    def test_alter_table_roundtrip(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        session.execute("ALTER TABLE items ADD COLUMN tag TEXT DEFAULT 'x'")
        session.execute("ALTER TABLE items RENAME COLUMN qty TO amount")
        session.execute("ALTER TABLE items RENAME TO stock")
        session.execute("ALTER TABLE stock DROP COLUMN name")
        expected = db.snapshot()
        db.close()
        db2 = reopen(dbdir)
        assert db2.snapshot() == expected
        assert db2.catalog.table("stock").column_names() == [
            "id", "amount", "tag",
        ]

    def test_drop_table_and_recreate_changes_uid(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        old_uid = db.heap("items").uid
        session.execute("DROP TABLE items")
        session.execute("CREATE TABLE items (id INT PRIMARY KEY)")
        session.execute("INSERT INTO items VALUES (10)")
        new_uid = db.heap("items").uid
        assert new_uid != old_uid
        db.close()
        db2 = reopen(dbdir)
        assert db2.heap("items").uid == new_uid
        assert db2.snapshot()["items"] == [{"id": 10}]


class TestEngineLifecycle:
    def test_in_memory_remains_default(self):
        db = Database(owner="admin")
        assert db.engine.durable is False
        # no hooks: the transaction manager keeps no redo log
        assert db.connect("admin").tx.hooks is None

    def test_checkpoint_compacts_wal(self, dbdir):
        db = seeded(dbdir)
        wal_path = db.engine.wal_path
        assert os.path.getsize(wal_path) > 0
        db.checkpoint()
        assert os.path.getsize(wal_path) == 0
        expected = db.snapshot()
        db.close()
        db2 = reopen(dbdir)
        assert db2.snapshot() == expected
        assert db2.engine.stats["snapshot_loaded"] is True
        assert db2.engine.stats["wal_replayed"] == 0

    @pytest.mark.parametrize(
        "mode,encoding",
        [("a", "utf-8"), ("ab", None), ("w", "utf-8"), ("rb", None), ("r+b", None)],
    )
    def test_the_passthrough_seam_returns_the_builtin_file(
        self, tmp_path, mode, encoding
    ):
        """The production seam adds no per-write wrapper: in every mode
        the engine opens a file in, it hands back the builtin file object."""
        path = str(tmp_path / "wal.jsonl")
        open(path, "w").close()
        with OS_FILESYSTEM.open(path, mode, encoding=encoding) as seam, open(
            path, mode, encoding=encoding
        ) as builtin:
            assert type(seam) is type(builtin)

    def test_checkpoint_refused_inside_transaction(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        session.execute("BEGIN")
        session.execute("INSERT INTO items VALUES (9, 'open', 0)")
        with pytest.raises(TransactionError):
            db.checkpoint()
        session.execute("ROLLBACK")
        db.checkpoint()  # fine once the transaction is gone
        db.close()

    def test_auto_checkpoint_by_record_count(self, tmp_path):
        path = str(tmp_path / "auto")
        db = Database.open(path, auto_checkpoint_records=5)
        session = db.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        for i in range(8):
            session.execute(f"INSERT INTO t VALUES ({i})")
        # 1 DDL + 8 inserts crossed the threshold at least once
        assert db.engine.stats["checkpoints"] >= 2  # initial + automatic
        with open(db.engine.wal_path, "rb") as fh:
            remaining = [line for line in fh.read().split(b"\n") if line]
        assert len(remaining) < 5  # compaction kept the log short
        db.close()
        assert reopen(path).table_row_count("t") == 8

    def test_auto_checkpoint_deferred_during_transaction(self, tmp_path):
        path = str(tmp_path / "defer")
        db = Database.open(path, auto_checkpoint_records=3)
        session = db.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        checkpoints_before = db.engine.stats["checkpoints"]
        session.execute("BEGIN")
        for i in range(6):
            session.execute(f"INSERT INTO t VALUES ({i})")
        session.execute("COMMIT")  # threshold crossed mid-commit: deferred
        assert db.engine.stats["checkpoints"] > checkpoints_before
        db.close()
        assert reopen(path).table_row_count("t") == 6

    def test_closed_engine_rejects_writes(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        db.close()
        with pytest.raises(PersistenceError):
            session.execute("INSERT INTO items VALUES (5, 'late', 0)")

    def test_live_holder_in_another_process_refuses_then_dies(self, dbdir):
        seeded(dbdir).close()
        holder = spawn(HOLDER, dbdir)
        try:
            assert holder.stdout.readline() == "ready\n"
            with pytest.raises(PersistenceError, match="already open in this or another"):
                Database.open(dbdir)
        finally:
            holder.kill()
            holder.communicate()  # reaps it and closes the pipes
        # the kernel dropped the dead holder's lock: no stale file to clear
        db = reopen(dbdir)
        assert sorted(row["id"] for row in db.snapshot()["items"]) == [1, 2, 3]
        db.close()

    def test_lock_naming_a_live_process_that_holds_nothing_opens(self, dbdir):
        # a crashed owner's pid handed to an unrelated, still-running process
        db = seeded(dbdir)
        expected = db.snapshot()
        db.close()
        bystander = spawn("import sys; sys.stdin.read()")
        try:
            with open(os.path.join(dbdir, "LOCK"), "w") as fh:
                fh.write(f"{bystander.pid}\n")
            db2 = reopen(dbdir)
            assert db2.snapshot() == expected
            db2.close()
        finally:
            bystander.kill()
            bystander.communicate()  # reaps it and closes the pipes

    def test_same_process_double_open_refused(self, dbdir):
        db = seeded(dbdir)
        with pytest.raises(PersistenceError, match="already open in this"):
            Database.open(dbdir)
        db.close()
        db2 = reopen(dbdir)  # fine once the first handle is closed
        db2.close()

    def test_an_owner_dropped_unclosed_in_a_cycle_never_blocks_an_open(self, dbdir):
        db = seeded(dbdir)
        expected = db.snapshot()
        engine = weakref.ref(db.engine)
        gc.disable()  # keep the dropped database's reference cycle alive
        try:
            db = None
            assert engine() is not None  # its LOCK descriptor is still open
            db2 = reopen(dbdir)  # the open collects it and retries
        finally:
            gc.enable()
        assert engine() is None
        assert db2.snapshot() == expected
        db2.close()

    def test_failed_recovery_releases_lock(self, dbdir):
        db = seeded(dbdir)
        db.checkpoint()
        expected = db.snapshot()
        db.close()
        snapshot_path = os.path.join(dbdir, "snapshot.json")
        with open(snapshot_path, "rb") as fh:
            good = fh.read()
        with open(snapshot_path, "r+") as fh:
            fh.write("garbage")  # corrupt the snapshot header
        with pytest.raises(PersistenceError):
            Database.open(dbdir)
        # the failed open must not hold the directory hostage
        with open(snapshot_path, "wb") as fh:
            fh.write(good)
        db2 = reopen(dbdir)
        assert db2.snapshot() == expected
        db2.close()

    def test_lock_file_is_never_unlinked(self, dbdir):
        # unlinking a held LOCK would let a third opener lock a fresh inode
        db = seeded(dbdir)
        lock_path = os.path.join(dbdir, "LOCK")
        inode = os.stat(lock_path).st_ino
        with pytest.raises(PersistenceError):
            Database.open(dbdir)  # a refused open leaves the file alone
        assert os.stat(lock_path).st_ino == inode
        db.close()
        assert os.stat(lock_path).st_ino == inode
        db2 = reopen(dbdir)
        assert os.stat(lock_path).st_ino == inode
        db2.close()
        assert os.path.getsize(lock_path) == 0  # never written either

    def test_stale_lock_from_dead_process_opens(self, dbdir):
        db = seeded(dbdir)
        expected = db.snapshot()
        db.close()
        with open(os.path.join(dbdir, "LOCK"), "w") as fh:
            fh.write("999999999\n")  # beyond pid_max: never a live process
        db2 = reopen(dbdir)
        assert db2.snapshot() == expected
        db2.close()

    def test_open_seeds_owner_only_when_fresh(self, dbdir):
        db = Database.open(dbdir, owner="creator")
        db.create_user("other")
        db.close()
        db2 = Database.open(dbdir, owner="impostor")
        assert db2.privileges.owner == "creator"
        assert db2.privileges.has_user("other")


def wal_bytes(path: str) -> bytes:
    with open(os.path.join(path, "wal.jsonl"), "rb") as fh:
        return fh.read()


def shadow_replay(data: bytes) -> dict[int, dict]:
    """Independent oracle: apply committed WAL batches to a dict model.

    Mirrors the durability contract, not the implementation: only whole
    batches terminated by a commit-marked record count; a trailing batch
    whose commit marker is missing (torn away) is ignored entirely.
    """
    rows: dict[int, dict] = {}
    pending: list[dict] = []
    # the final split element is either b"" (file ends with a newline) or
    # a torn fragment — both are outside the durable prefix
    for line in data.split(b"\n")[:-1]:
        if not line:
            continue
        try:
            pending.append(json.loads(line))
        except ValueError:
            break
        if not pending[-1].get("commit"):
            continue
        for record in pending:
            if record["op"] in ("insert", "update"):
                rows[record["rid"]] = dict(record["row"])
            elif record["op"] == "delete":
                del rows[record["rid"]]
        pending = []
    return rows


def durable_prefix(data: bytes) -> bytes:
    """Bytes recovery must keep: up to the last complete committed batch."""
    end = 0
    position = 0
    while True:
        newline = data.find(b"\n", position)
        if newline == -1:
            break
        try:
            record = json.loads(data[position:newline])
        except ValueError:
            break
        position = newline + 1
        if isinstance(record, dict) and record.get("commit"):
            end = position
    return data[:end]


# A database directory as the row-major engine (snapshot format 1, up to
# commit a8f47cb) left it: three tables — one with a dropped rid, an added
# column, a btree index and ANALYZE statistics; one referencing it; one
# empty — checkpointed, then four more committed statements in the WAL.
FORMAT_1_SNAPSHOT = (
    '{"format":1,"name":"main","applied_seq":14,"privileges":{"owner":"admin",'
    '"users":{"admin":[],"public":[]}},"tables":[{"schema":{"name":"items",'
    '"columns":[{"name":"id","type":"INTEGER","length":null,"not_null":true,'
    '"default":null,"has_default":false},{"name":"name","type":"TEXT","length":null,'
    '"not_null":false,"default":null,"has_default":false},{"name":"qty",'
    '"type":"INTEGER","length":null,"not_null":false,"default":0,"has_default":true},'
    '{"name":"tag","type":"TEXT","length":null,"not_null":false,"default":"x",'
    '"has_default":true}],"primary_key":["id"],"foreign_keys":[],"uniques":[],'
    '"checks":[]},"indexes":[{"name":"pk_items","columns":["id"],"unique":true,'
    '"kind":"hash"},{"name":"items_qty","columns":["qty"],"unique":false,'
    '"kind":"btree"}],"uid":1,"version":9,"next_rid":5,"rows":[[1,{"id":1,'
    '"name":"alpha","qty":5,"tag":"x"}],[3,{"id":3,"name":"gamma","qty":null,'
    '"tag":"x"}],[4,{"id":4,"name":"delta","qty":9,"tag":"x"}]]},{"schema":{'
    '"name":"notes","columns":[{"name":"id","type":"INTEGER","length":null,'
    '"not_null":true,"default":null,"has_default":false},{"name":"item_id",'
    '"type":"INTEGER","length":null,"not_null":false,"default":null,'
    '"has_default":false},{"name":"body","type":"TEXT","length":null,'
    '"not_null":false,"default":null,"has_default":false}],"primary_key":["id"],'
    '"foreign_keys":[{"columns":["item_id"],"ref_table":"items","ref_columns":["id"]}],'
    '"uniques":[],"checks":[]},"indexes":[{"name":"pk_notes","columns":["id"],'
    '"unique":true,"kind":"hash"}],"uid":2,"version":3,"next_rid":3,"rows":[[1,{"id":1,'
    '"item_id":1,"body":"first"}],[2,{"id":2,"item_id":3,"body":null}]]},{"schema":{'
    '"name":"empty_t","columns":[{"name":"x","type":"INTEGER","length":null,'
    '"not_null":false,"default":null,"has_default":false}],"primary_key":[],'
    '"foreign_keys":[],"uniques":[],"checks":[]},"indexes":[],"uid":3,"version":0,'
    '"next_rid":1,"rows":[]}],"views":[],"indexes":[{"name":"items_qty",'
    '"table":"items","columns":["qty"],"unique":false,"kind":"btree"}],'
    '"statistics":[{"table":"items","row_count":3,"uid":1,"version":9,"columns":{'
    '"id":{"ndv":3,"null_frac":0.0,"boundaries":[1,3,4]},"name":{"ndv":3,'
    '"null_frac":0.0,"boundaries":["alpha","delta","gamma"]},"qty":{"ndv":2,'
    '"null_frac":0.3333333333333333,"boundaries":[5,9]},"tag":{"ndv":1,'
    '"null_frac":0.0,"boundaries":["x","x","x"]}}}]}'
)
FORMAT_1_WAL = (
    '{"seq":15,"op":"insert","table":"items","rid":5,"row":{"id":5,"name":"eps",'
    '"qty":2,"tag":"y"},"uid":1,"version":10,"commit":true}\n'
    '{"seq":16,"op":"update","table":"notes","rid":2,"row":{"id":2,"item_id":3,'
    '"body":"second"},"uid":2,"version":4,"commit":true}\n'
    '{"seq":17,"op":"delete","table":"items","rid":4,"uid":1,"version":11,'
    '"commit":true}\n'
    '{"seq":18,"op":"insert","table":"empty_t","rid":1,"row":{"x":1},"uid":3,'
    '"version":1,"commit":true}\n'
)
# what each heap's snapshot_state() must read after opening the above
FORMAT_1_STATES = {
    "snapshot only": {
        "items": {
            "uid": 1, "version": 9, "next_rid": 5, "rids": [1, 3, 4],
            "columns": {
                "id": [1, 3, 4],
                "name": ["alpha", "gamma", "delta"],
                "qty": [5, None, 9],
                "tag": ["x", "x", "x"],
            },
        },
        "notes": {
            "uid": 2, "version": 3, "next_rid": 3, "rids": [1, 2],
            "columns": {
                "id": [1, 2], "item_id": [1, 3], "body": ["first", None],
            },
        },
        "empty_t": {
            "uid": 3, "version": 0, "next_rid": 1, "rids": [], "columns": {},
        },
    },
    "snapshot and wal": {
        "items": {
            "uid": 1, "version": 11, "next_rid": 6, "rids": [1, 3, 5],
            "columns": {
                "id": [1, 3, 5],
                "name": ["alpha", "gamma", "eps"],
                "qty": [5, None, 2],
                "tag": ["x", "x", "y"],
            },
        },
        "notes": {
            "uid": 2, "version": 4, "next_rid": 3, "rids": [1, 2],
            "columns": {
                "id": [1, 2], "item_id": [1, 3], "body": ["first", "second"],
            },
        },
        "empty_t": {
            "uid": 3, "version": 1, "next_rid": 2, "rids": [1],
            "columns": {"x": [1]},
        },
    },
}


# One session covering every change kind, a savepoint rollback, a rolled-back
# DROP and two failing statements — and the WAL commit d3e43a4 wrote for it
# (heap uids numbered by first appearance). The format is a compatibility
# surface: directories written by earlier commits must keep opening, so the
# comparison is record for record, key order included.
GOLDEN_SCRIPT = (
    "CREATE TABLE parent (id INT PRIMARY KEY, name TEXT NOT NULL, "
    "qty INT DEFAULT 0 CHECK (qty >= 0), UNIQUE (name))",
    "CREATE TABLE child (id INT PRIMARY KEY, pid INT REFERENCES parent(id), "
    "note TEXT)",
    "INSERT INTO parent VALUES (1, 'a', 1), (2, 'b', 2)",
    "INSERT INTO child VALUES (1, 1, 'x')",
    "INSERT INTO parent VALUES (1, 'dup', 0)",  # fails: primary key
    "BEGIN",
    "UPDATE parent SET qty = qty + 1 WHERE id = 1",
    "SAVEPOINT s",
    "DELETE FROM child WHERE id = 1",
    "INSERT INTO parent VALUES (3, 'c', -1)",  # fails: CHECK
    "ROLLBACK TO s",
    "INSERT INTO parent VALUES (3, 'c', 3)",
    "COMMIT",
    "DELETE FROM parent WHERE id = 2",
    "ALTER TABLE parent ADD COLUMN tag TEXT DEFAULT 't'",
    "ALTER TABLE parent RENAME COLUMN tag TO label",
    "ALTER TABLE child DROP COLUMN note",
    "CREATE INDEX parent_qty ON parent USING BTREE (qty)",
    "CREATE UNIQUE INDEX child_pid ON child (pid)",
    "DROP INDEX child_pid",
    "ANALYZE parent",
    "CREATE VIEW busy AS SELECT id, name FROM parent WHERE qty > 1",
    "CREATE OR REPLACE VIEW busy AS SELECT id FROM parent",
    "BEGIN",
    "DROP TABLE child",
    "ROLLBACK",
    "CREATE TABLE scratch (x INT)",
    "ALTER TABLE scratch RENAME TO scratch2",
    "DROP TABLE scratch2",
    "DROP VIEW busy",
    "CREATE USER reader",  # Database.create_user, not SQL
    "GRANT SELECT, INSERT ON parent, child TO reader",
    "GRANT SELECT (id) ON parent TO reader",
    "REVOKE INSERT ON parent FROM reader",
)
GOLDEN_WAL = (
    '{"seq":1,"op":"create_table","table":"parent","schema":{"name":"parent",'
    '"columns":[{"name":"id","type":"INTEGER","length":null,"not_null":true,'
    '"default":null,"has_default":false},{"name":"name","type":"TEXT",'
    '"length":null,"not_null":true,"default":null,"has_default":false},'
    '{"name":"qty","type":"INTEGER","length":null,"not_null":false,"default":0,'
    '"has_default":true}],"primary_key":["id"],"foreign_keys":[],'
    '"uniques":[["name"]],"checks":["(qty >= 0)"]},"indexes":[{"name":"pk_parent",'
    '"columns":["id"],"unique":true,"kind":"hash"},{"name":"uq_parent_0",'
    '"columns":["name"],"unique":true,"kind":"hash"}],"uid":1,"version":2,'
    '"commit":true}\n'
    '{"seq":2,"op":"create_table","table":"child","schema":{"name":"child",'
    '"columns":[{"name":"id","type":"INTEGER","length":null,"not_null":true,'
    '"default":null,"has_default":false},{"name":"pid","type":"INTEGER",'
    '"length":null,"not_null":false,"default":null,"has_default":false},'
    '{"name":"note","type":"TEXT","length":null,"not_null":false,"default":null,'
    '"has_default":false}],"primary_key":["id"],"foreign_keys":[{"columns":["pid"],'
    '"ref_table":"parent","ref_columns":["id"]}],"uniques":[],"checks":[]},'
    '"indexes":[{"name":"pk_child","columns":["id"],"unique":true,"kind":"hash"}],'
    '"uid":2,"version":1,"commit":true}\n'
    '{"seq":3,"op":"insert","table":"parent","rid":1,"row":{"id":1,"name":"a",'
    '"qty":1},"uid":1,"version":3}\n'
    '{"seq":4,"op":"insert","table":"parent","rid":2,"row":{"id":2,"name":"b",'
    '"qty":2},"uid":1,"version":4,"commit":true}\n'
    '{"seq":5,"op":"insert","table":"child","rid":1,"row":{"id":1,"pid":1,'
    '"note":"x"},"uid":2,"version":2,"commit":true}\n'
    '{"seq":6,"op":"update","table":"parent","rid":1,"row":{"id":1,"name":"a",'
    '"qty":2},"uid":1,"version":5}\n'
    '{"seq":7,"op":"insert","table":"parent","rid":4,"row":{"id":3,"name":"c",'
    '"qty":3},"uid":1,"version":6,"commit":true}\n'
    '{"seq":8,"op":"delete","table":"parent","rid":2,"uid":1,"version":7,'
    '"commit":true}\n'
    '{"seq":9,"op":"add_column","table":"parent","column":{"name":"tag",'
    '"type":"TEXT","length":null,"not_null":false,"default":"t",'
    '"has_default":true},"fill":"t","uid":1,"version":8,"commit":true}\n'
    '{"seq":10,"op":"rename_column","table":"parent","old":"tag","new":"label",'
    '"uid":1,"version":9,"commit":true}\n'
    '{"seq":11,"op":"drop_column","table":"child","column":"note","uid":2,'
    '"version":5,"commit":true}\n'
    '{"seq":12,"op":"create_index","table":"parent","index":{"name":"parent_qty",'
    '"columns":["qty"],"unique":false,"kind":"btree"},"uid":1,"version":10,'
    '"commit":true}\n'
    '{"seq":13,"op":"create_index","table":"child","index":{"name":"child_pid",'
    '"columns":["pid"],"unique":true,"kind":"hash"},"uid":2,"version":6,'
    '"commit":true}\n'
    '{"seq":14,"op":"drop_index","table":"child","index":"child_pid","uid":2,'
    '"version":7,"commit":true}\n'
    '{"seq":15,"op":"analyze","table":"parent","stats":{"table":"parent",'
    '"row_count":2,"uid":1,"version":10,"columns":{"id":{"ndv":2,"null_frac":0.0,'
    '"boundaries":[1,3]},"label":{"ndv":1,"null_frac":0.0,"boundaries":["t","t"]},'
    '"name":{"ndv":2,"null_frac":0.0,"boundaries":["a","c"]},"qty":{"ndv":2,'
    '"null_frac":0.0,"boundaries":[2,3]}}},"commit":true}\n'
    '{"seq":16,"op":"create_view","view":"busy","sql":"SELECT id,'
    ' name FROM parent WHERE (qty > 1)","or_replace":false,"commit":true}\n'
    '{"seq":17,"op":"create_view","view":"busy","sql":"SELECT id FROM parent",'
    '"or_replace":true,"commit":true}\n'
    '{"seq":18,"op":"create_table","table":"scratch","schema":{"name":"scratch",'
    '"columns":[{"name":"x","type":"INTEGER","length":null,"not_null":false,'
    '"default":null,"has_default":false}],"primary_key":[],"foreign_keys":[],'
    '"uniques":[],"checks":[]},"indexes":[],"uid":3,"version":0,"commit":true}\n'
    '{"seq":19,"op":"rename_table","old":"scratch","new":"scratch2",'
    '"commit":true}\n'
    '{"seq":20,"op":"drop_table","table":"scratch2","commit":true}\n'
    '{"seq":21,"op":"drop_view","view":"busy","commit":true}\n'
    '{"seq":22,"op":"create_user","user":"reader","commit":true}\n'
    '{"seq":23,"op":"grant","grantee":"reader","actions":["SELECT","INSERT"],'
    '"objects":["parent","child"],"columns":null,"commit":true}\n'
    '{"seq":24,"op":"grant","grantee":"reader","actions":["SELECT"],'
    '"objects":["parent"],"columns":["id"],"commit":true}\n'
    '{"seq":25,"op":"revoke","grantee":"reader","actions":["INSERT"],'
    '"objects":["parent"],"columns":null,"commit":true}\n'
)


def uids_by_first_appearance(line: str, seen: dict[int, int]) -> str:
    """``line`` re-encoded with every ``uid`` renumbered 1, 2, … in order
    of first appearance (heap uids are process-wide counters)."""

    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "uid":
                    node[key] = seen.setdefault(value, len(seen) + 1)
                else:
                    walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    record = json.loads(line)
    walk(record)
    return json.dumps(record, separators=(",", ":"))


class TestGoldenWal:
    def test_wal_is_what_d3e43a4_wrote(self, dbdir):
        db = Database.open(dbdir)
        session = db.connect("admin")
        failed = [s for s in GOLDEN_SCRIPT if not run_statement(db, session, s)]
        assert [s[-8:] for s in failed] == ["dup', 0)", "'c', -1)"]
        live = db.snapshot()
        grants = db.privileges.grants_of("reader")
        db.close()

        seen: dict[int, int] = {}
        with open(os.path.join(dbdir, "wal.jsonl"), encoding="utf-8") as fh:
            written = [uids_by_first_appearance(line, seen) for line in fh]
        assert written == GOLDEN_WAL.splitlines()
        assert {json.loads(line)["op"] for line in written} == set(changes.OPS)

        # and the literal itself — a WAL that commit wrote — opens to the
        # same rows
        other = dbdir + "-from-literal"
        os.makedirs(other)
        with open(os.path.join(other, "wal.jsonl"), "w", encoding="utf-8") as fh:
            fh.write(GOLDEN_WAL)
        for path in (dbdir, other):
            db2 = reopen(path)
            assert db2.engine.stats["wal_replayed"] == len(written)
            assert db2.snapshot() == live
            assert sorted(db2.catalog.indexes) == ["parent_qty"]
            assert db2.privileges.grants_of("reader") == grants
            db2.close()


class TestSnapshotFormats:
    """Snapshot format 2 is column-major; format-1 files still open."""

    def _write(self, tmp_path, snapshot: str, wal: str = "") -> str:
        path = str(tmp_path / "db")
        os.makedirs(path)
        with open(os.path.join(path, "snapshot.json"), "w", encoding="utf-8") as fh:
            fh.write(snapshot)
        with open(os.path.join(path, "wal.jsonl"), "w", encoding="utf-8") as fh:
            fh.write(wal)
        return path

    @pytest.mark.parametrize("case", sorted(FORMAT_1_STATES))
    def test_format_1_opens_and_is_rewritten_as_format_2(self, tmp_path, case):
        wal = FORMAT_1_WAL if case == "snapshot and wal" else ""
        path = self._write(tmp_path, FORMAT_1_SNAPSHOT, wal)
        expected = FORMAT_1_STATES[case]
        db = reopen(path)
        assert {n: h.snapshot_state() for n, h in db.heaps.items()} == expected
        # indexes were rebuilt from the key columns alone
        items = db.heap("items")
        assert items.indexes["pk_items"].probe((3,)) == {3}
        by_qty = [1, 4, 3] if case == "snapshot only" else [5, 1, 3]  # NULL last
        assert list(items.indexes["items_qty"].ordered_rids()) == by_qty
        assert db.catalog.statistics["items"].row_count == 3
        session = db.connect("admin")
        assert session.scalar("SELECT name FROM items WHERE qty = 5") == "alpha"
        contents = db.snapshot()

        db.checkpoint()
        with open(os.path.join(path, "snapshot.json"), encoding="utf-8") as fh:
            rewritten = json.load(fh)
        assert rewritten["format"] == 2
        for entry in rewritten["tables"]:
            assert "rows" not in entry
            state = expected[entry["schema"]["name"]]
            assert {key: entry[key] for key in state} == state
        db.close()

        db2 = reopen(path)
        assert db2.engine.stats["wal_replayed"] == 0
        assert db2.snapshot() == contents
        assert {n: h.snapshot_state() for n, h in db2.heaps.items()} == expected
        db2.close()

    def test_unknown_format_refused(self, tmp_path):
        future = FORMAT_1_SNAPSHOT.replace('{"format":1,', '{"format":3,', 1)
        path = self._write(tmp_path, future)
        with pytest.raises(PersistenceError, match="unsupported snapshot format 3"):
            reopen(path)

    def test_ragged_columns_refused(self, dbdir):
        db = seeded(dbdir)
        db.checkpoint()
        db.close()
        snapshot_path = os.path.join(dbdir, "snapshot.json")
        with open(snapshot_path, encoding="utf-8") as fh:
            data = json.load(fh)
        assert data["format"] == 2
        assert data["tables"][0]["columns"]["name"] == ["alpha", "beta"]
        data["tables"][0]["columns"]["name"].pop()
        with open(snapshot_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        with pytest.raises(PersistenceError, match="column 'name' holds 1 values"):
            reopen(dbdir)


def copy_db(src: str, dst: str, wal: bytes) -> None:
    if os.path.exists(dst):
        shutil.rmtree(dst)
    os.makedirs(dst)
    shutil.copy2(os.path.join(src, "snapshot.json"), dst)
    with open(os.path.join(dst, "wal.jsonl"), "wb") as fh:
        fh.write(wal)


class TestTornWal:
    def _fixture(self, tmp_path) -> str:
        path = str(tmp_path / "db")
        db = Database.open(path)
        session = db.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        db.checkpoint()  # WAL now contains exactly the DML below
        session.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
        session.execute("UPDATE t SET name = 'TWO' WHERE id = 2")
        # final transaction is multi-record: tearing its last record must
        # discard the *whole* batch, not leave rid 3 half-applied
        session.execute("INSERT INTO t VALUES (3, 'three'), (4, 'four')")
        db.close()
        return path

    def test_truncation_at_every_byte_of_final_record(self, tmp_path):
        path = self._fixture(tmp_path)
        data = wal_bytes(path)
        final_start = data.rstrip(b"\n").rfind(b"\n") + 1
        scratch = str(tmp_path / "scratch")
        for cut in range(final_start, len(data) + 1):
            truncated = data[:cut]
            copy_db(path, scratch, truncated)
            db = reopen(scratch)
            got = {rid: row for rid, row in db.heap("t").rows()}
            assert got == shadow_replay(truncated), f"mismatch at cut={cut}"
            # a torn final record takes its whole uncommitted batch with
            # it: rid 3 must never appear without rid 4
            if cut < len(data):
                assert 3 not in got and 4 not in got
            # bytes past the last committed batch are physically gone
            assert wal_bytes(scratch) == durable_prefix(truncated)
            db.close()

    def test_garbage_tail_truncated(self, tmp_path):
        path = self._fixture(tmp_path)
        data = wal_bytes(path)
        scratch = str(tmp_path / "scratch")
        copy_db(path, scratch, data + b'{"seq": nope\n')
        db = reopen(scratch)
        assert db.engine.stats["wal_truncated_bytes"] > 0
        assert {rid for rid, _ in db.heap("t").rows()} == {1, 2, 3, 4}
        assert wal_bytes(scratch) == data
        db.close()

    def test_sequence_gap_ends_replay(self, tmp_path):
        path = self._fixture(tmp_path)
        data = wal_bytes(path)
        gap = json.dumps(
            {"seq": 999, "op": "insert", "table": "t", "rid": 9,
             "row": {"id": 9, "name": "gap"}, "uid": 1, "version": 99,
             "commit": True}
        ).encode() + b"\n"
        scratch = str(tmp_path / "scratch")
        copy_db(path, scratch, data + gap)
        db = reopen(scratch)
        assert {rid for rid, _ in db.heap("t").rows()} == {1, 2, 3, 4}
        assert wal_bytes(scratch) == data
        db.close()

    def test_torn_commit_never_half_applies_transaction(self, tmp_path):
        """A multi-statement explicit transaction whose commit batch is
        torn mid-way recovers to the pre-transaction state entirely."""
        path = str(tmp_path / "db")
        db = Database.open(path)
        session = db.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        db.checkpoint()
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1, 'first')")
        session.execute("INSERT INTO t VALUES (2, 'second')")
        session.execute("UPDATE t SET name = 'FIRST' WHERE id = 1")
        session.execute("COMMIT")  # one batch, three records
        db.close()
        data = wal_bytes(path)
        lines = data.rstrip(b"\n").split(b"\n")
        assert len(lines) == 3
        scratch = str(tmp_path / "scratch")
        # keep 1 or 2 complete records of the 3-record batch: recovery
        # must apply none of them
        for keep in (1, 2):
            partial = b"\n".join(lines[:keep]) + b"\n"
            copy_db(path, scratch, partial)
            recovered = reopen(scratch)
            assert len(recovered.heap("t")) == 0
            assert wal_bytes(scratch) == b""  # uncommitted batch truncated
            recovered.close()


# one statement of a random committed history; ids collide on purpose so
# failed statements (PK violations) exercise the undo path too
_VALUES = st.integers(min_value=0, max_value=6)
_STATEMENTS = st.one_of(
    st.tuples(st.just("insert"), _VALUES, st.text("abc", max_size=4)),
    st.tuples(st.just("update"), _VALUES, st.text("abc", max_size=4)),
    st.tuples(st.just("delete"), _VALUES, st.just("")),
)


@st.composite
def histories(draw):
    """A list of (in_tx, commit, statements) blocks."""
    blocks = draw(
        st.lists(
            st.tuples(
                st.booleans(),  # wrap in BEGIN .. COMMIT/ROLLBACK
                st.booleans(),  # commit (vs rollback) when wrapped
                st.lists(_STATEMENTS, min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=5,
        )
    )
    return blocks


class TestCrashRecoveryProperty:
    # tmp_path reuse across examples is handled explicitly (rmtree per run)
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(history=histories())
    def test_truncated_wal_recovers_durable_prefix(self, history, tmp_path):
        """Replay a random committed history, truncate the WAL at every byte
        boundary of the final record, reopen, and check the recovered heap
        equals an independent shadow replay of the durable prefix."""
        path = str(tmp_path / "db")
        if os.path.exists(path):
            shutil.rmtree(path)
        db = Database.open(path)
        session = db.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        db.checkpoint()

        def run(statement):
            op, key, text = statement
            try:
                if op == "insert":
                    session.execute(
                        f"INSERT INTO t VALUES ({key}, '{text}')"
                    )
                elif op == "update":
                    session.execute(
                        f"UPDATE t SET name = '{text}' WHERE id = {key}"
                    )
                else:
                    session.execute(f"DELETE FROM t WHERE id = {key}")
            except UniqueViolation:
                pass  # failed statement: undo ran, nothing durable

        for in_tx, commit, statements in history:
            if in_tx:
                session.execute("BEGIN")
            for statement in statements:
                run(statement)
            if in_tx:
                session.execute("COMMIT" if commit else "ROLLBACK")

        live = {rid: row for rid, row in db.heap("t").rows()}
        del db, session  # crash: no close()

        data = wal_bytes(path)
        # full-file recovery equals the live state and the shadow model
        assert shadow_replay(data) == live
        scratch = str(tmp_path / "scratch")
        if not data:
            return
        final_start = data.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(final_start, len(data) + 1):
            truncated = data[:cut]
            copy_db(path, scratch, truncated)
            recovered = reopen(scratch)
            got = {rid: row for rid, row in recovered.heap("t").rows()}
            # the commit-aware shadow drops any torn trailing batch, so
            # one expression covers every cut point
            assert got == shadow_replay(truncated), f"cut={cut}"
            assert wal_bytes(scratch) == durable_prefix(truncated)
            recovered.close()
