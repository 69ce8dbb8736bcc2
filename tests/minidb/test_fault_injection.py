"""Systematic fault-injection torture of the durable engine (PR 7).

The harness runs one mixed DML/DDL workload through a
:class:`repro.faults.FaultyFilesystem` and, at *every* filesystem
operation index the workload performs, injects in turn

* a :class:`~repro.faults.SimulatedCrash` (process death at that exact
  syscall) — the directory is then reopened with the real filesystem and
  the recovered state must equal a **unit boundary** of an independent
  shadow replay: either the state before or the state after the unit the
  crash interrupted, never anything in between;
* a one-shot ``EIO`` — the engine must then honor the fail-stop
  contract: a poisoned WAL latches panic mode (writes refuse with the
  non-retryable :class:`~repro.minidb.StorageFailedError`, in-memory
  reads keep serving, ``close`` stays idempotent), a failed checkpoint
  stays *recoverable* (previous snapshot + WAL remain authoritative,
  compaction deferred), and a failed open leaves a directory a clean
  retry can open. After the contract checks the directory is reopened
  and must again sit on a shadow unit boundary.

A second crash sweep targets *recovery itself*: every operation index of
an open-with-existing-state run is crashed, and the subsequent clean
reopen must still recover the exact pre-crash state.

The degradation-semantics tests (panic-mode reads, ENOSPC-deferred
checkpoints retrying to success, torn-write determinism) live at the
bottom of the file.
"""

from __future__ import annotations

import errno
import gc
import os
import shutil

import pytest

from repro.faults import FaultPlan, FaultyFilesystem, SimulatedCrash
from repro.minidb import (
    Database,
    MiniDBError,
    PersistenceError,
    StorageFailedError,
)

# --------------------------------------------------------------------------
# workload: a list of units, each an atomic step of the torture script.
# Unit kinds:
#   sql        one autocommit statement
#   txn        BEGIN; <statements>; COMMIT  (one commit batch)
#   rollback   BEGIN; <statements>; ROLLBACK  (must never reach disk)
#   user       db.create_user(name)
#   checkpoint explicit snapshot + WAL truncation
# --------------------------------------------------------------------------

UNITS = [
    ("sql", "CREATE TABLE t (id INT PRIMARY KEY, name TEXT, qty INT)"),
    ("sql", "INSERT INTO t VALUES (1, 'ada', 10)"),
    ("sql", "INSERT INTO t VALUES (2, 'bob', 20), (3, 'cyd', 30)"),
    (
        "txn",
        (
            "UPDATE t SET qty = 99 WHERE id = 2",
            "INSERT INTO t VALUES (4, 'dee', 40)",
        ),
    ),
    ("sql", "CREATE INDEX idx_t_qty ON t (qty)"),
    ("checkpoint", None),
    ("rollback", ("DELETE FROM t WHERE id = 1",)),
    ("user", "bob"),
    ("sql", "GRANT SELECT ON t TO bob"),
    ("sql", "ALTER TABLE t ADD COLUMN note TEXT DEFAULT 'x'"),
    ("sql", "CREATE VIEW busy AS SELECT id, qty FROM t WHERE qty > 15"),
    ("sql", "UPDATE t SET qty = qty + 1 WHERE qty > 15"),
    ("sql", "DELETE FROM t WHERE id = 3"),
    ("checkpoint", None),
    ("sql", "INSERT INTO t VALUES (5, 'eve', 50, 'y')"),
]


def run_unit(db: Database, session, unit) -> None:
    kind, payload = unit
    if kind == "sql":
        session.execute(payload)
    elif kind == "txn":
        session.execute("BEGIN")
        for sql in payload:
            session.execute(sql)
        session.execute("COMMIT")
    elif kind == "rollback":
        session.execute("BEGIN")
        for sql in payload:
            session.execute(sql)
        session.execute("ROLLBACK")
    elif kind == "user":
        db.create_user(payload)
    elif kind == "checkpoint":
        db.checkpoint()
    else:  # pragma: no cover - workload typo guard
        raise AssertionError(f"unknown unit kind {kind!r}")


def logical_state(db: Database) -> dict:
    """Engine-independent summary of everything the workload mutates."""
    rows = {
        table: sorted(
            tuple(sorted(row.items())) for row in table_rows
        )
        for table, table_rows in db.snapshot().items()
    }
    return {
        "rows": rows,
        "tables": sorted(db.catalog.tables),
        "views": sorted(db.catalog.views),
        "indexes": sorted(db.catalog.indexes),
        "users": sorted(
            name for name in ("admin", "bob") if db.privileges.has_user(name)
        ),
    }


def shadow_states() -> list[dict]:
    """Replay the workload on an in-memory engine; state per unit boundary.

    ``states[0]`` is the fresh-database state; ``states[i + 1]`` is the
    state after ``UNITS[i]``. This is the recovery oracle: any crash or
    fail-stop during unit *i* must recover to ``states[i]`` or
    ``states[i + 1]``.
    """
    db = Database(owner="admin")
    session = db.connect("admin")
    states = [logical_state(db)]
    for unit in UNITS:
        run_unit(db, session, unit)
        states.append(logical_state(db))
    return states


SHADOW = shadow_states()


def scrub(exc: BaseException | None) -> None:
    """Strip traceback chains so a caught injected failure cannot keep the
    crashed engine alive through frame references (its open ``LOCK``
    descriptor would then refuse the reopen as a same-process double-open)."""
    seen: set[int] = set()
    while exc is not None and id(exc) not in seen:
        seen.add(id(exc))
        exc.__traceback__ = None
        exc = exc.__cause__ or exc.__context__


def run_workload(path: str, fs: FaultyFilesystem):
    """Run the full workload; returns (db, completed_units, failure).

    ``completed_units`` counts fully applied units; ``-1`` means the
    failure struck during ``Database.open`` itself. ``failure`` is the
    injected exception (or ``None`` for a clean run). Checkpoint units
    absorb recoverable ``PersistenceError`` — deferred compaction is
    in-contract, the workload continues — but any *other* error stops
    the run, exactly like an application crashing out.
    """
    completed = -1
    db = None
    try:
        db = Database.open(path, auto_checkpoint_records=0, filesystem=fs)
        session = db.connect("admin")
        completed = 0
        for index, unit in enumerate(UNITS):
            try:
                run_unit(db, session, unit)
            except StorageFailedError:
                raise
            except PersistenceError:
                if unit[0] != "checkpoint":
                    raise
                # recoverable checkpoint failure: compaction deferred,
                # previous snapshot + WAL stay authoritative; the unit
                # changed no logical state, so it still counts
            completed = index + 1
        return db, completed, None
    except (SimulatedCrash, MiniDBError, OSError) as exc:
        scrub(exc)
        return db, completed, exc


def assert_on_boundary(path: str, completed: int, context: str) -> None:
    """Reopen ``path`` cleanly; recovered state must be a unit boundary."""
    recovered = Database.open(path)
    try:
        state = logical_state(recovered)
        if completed < 0:
            # the failure struck during open of a fresh directory: only
            # the base state can exist
            allowed = SHADOW[0:1]
        else:
            # failure during unit `completed`: before-or-after that unit
            allowed = SHADOW[completed : completed + 2]
        assert state in allowed, (
            f"{context}: recovered state is not a unit boundary "
            f"(last completed unit {completed})"
        )
        # satellite: a failed checkpoint must never leak its temp file
        assert not os.path.exists(
            os.path.join(recovered.engine.path, "snapshot.json.tmp")
        ), f"{context}: stale snapshot temp file survived recovery"
    finally:
        recovered.close()


def baseline_op_count(tmp_path) -> int:
    """Ops of one clean workload run (and oracle-vs-durable agreement)."""
    path = str(tmp_path / "baseline")
    fs = FaultyFilesystem(FaultPlan())
    db, completed, failure = run_workload(path, fs)
    assert failure is None and completed == len(UNITS)
    assert logical_state(db) == SHADOW[-1]
    total = fs.ops  # before close(): the sweep never reaches close
    db.close()
    return total


# --------------------------------------------------------------------------
# sweep 1: crash at every operation index of the workload
# --------------------------------------------------------------------------


class TestCrashSweep:
    def test_crash_at_every_operation_recovers_a_unit_boundary(self, tmp_path):
        total = baseline_op_count(tmp_path)
        assert total > 40, "workload too small to be a meaningful sweep"
        for at in range(total):
            path = str(tmp_path / f"crash{at}")
            fs = FaultyFilesystem(FaultPlan(crash_at=at, seed=at))
            db, completed, failure = run_workload(path, fs)
            assert isinstance(failure, SimulatedCrash), (
                f"crash_at={at}: expected a crash, got {failure!r}"
            )
            assert fs.injected
            db = failure = None  # simulated process death: no close()
            gc.collect()
            assert_on_boundary(path, completed, f"crash_at={at}")


# --------------------------------------------------------------------------
# sweep 2: crash at every operation index of *recovery*
# --------------------------------------------------------------------------


class TestRecoveryCrashSweep:
    def test_crash_during_recovery_is_itself_recoverable(self, tmp_path):
        path = str(tmp_path / "db")
        db, completed, failure = run_workload(path, FaultyFilesystem(FaultPlan()))
        assert failure is None
        # leave WAL records behind the snapshot so recovery has real work
        session = db.connect("admin")
        session.execute("INSERT INTO t VALUES (6, 'fin', 60, 'z')")
        final = logical_state(db)
        # no close(): the dropped engine's LOCK descriptor closes with it
        db = session = None
        gc.collect()
        # freeze the crashed directory: each sweep iteration recovers an
        # identical copy, so the operation sequence is identical too
        pristine = str(tmp_path / "pristine")
        shutil.copytree(path, pristine)

        def restore() -> None:
            shutil.rmtree(path)
            shutil.copytree(pristine, path)

        # learn how many operations a clean recovery performs
        probe = FaultyFilesystem(FaultPlan())
        recovered = Database.open(path, filesystem=probe)
        assert logical_state(recovered) == final
        reopen_ops = probe.ops  # before close(): the sweep crashes in open
        recovered.close()
        assert reopen_ops > 5

        for at in range(reopen_ops):
            restore()
            fs = FaultyFilesystem(FaultPlan(crash_at=at, seed=at))
            try:
                db2 = Database.open(path, filesystem=fs)
            except SimulatedCrash:
                gc.collect()
            else:
                db2.close()
                pytest.fail(f"recovery crash_at={at} did not fire")
            recovered = Database.open(path)
            try:
                assert logical_state(recovered) == final, (
                    f"recovery crash_at={at}: state changed across a "
                    "crashed recovery"
                )
            finally:
                recovered.close()


# --------------------------------------------------------------------------
# sweep 3: EIO at every operation index — the fail-stop contract
# --------------------------------------------------------------------------


class TestErrorSweep:
    def test_eio_at_every_operation_honors_the_failstop_contract(
        self, tmp_path
    ):
        total = baseline_op_count(tmp_path)
        panics = checkpoint_deferrals = open_failures = clean = 0
        for at in range(total):
            path = str(tmp_path / f"eio{at}")
            fs = FaultyFilesystem(FaultPlan(error_at=at, seed=at))
            db, completed, failure = run_workload(path, fs)
            assert fs.injected, f"error_at={at} never fired"
            if failure is None:
                # the error was absorbed in-contract (deferred checkpoint
                # compaction, or tolerated cleanup failure); the workload
                # must then have completed exactly
                clean += 1
                if db.engine.stats["checkpoint_failures"]:
                    checkpoint_deferrals += 1
                assert completed == len(UNITS)
                assert logical_state(db) == SHADOW[-1]
                assert not db.engine.panicked
                db.close()
            elif completed == -1:
                # failed open: nothing to degrade — a clean retry must work
                open_failures += 1
                db = failure = None
                gc.collect()
            else:
                # mid-workload storage failure: fail-stop panic mode
                panics += 1
                assert isinstance(failure, StorageFailedError), (
                    f"error_at={at}: expected fail-stop, got {failure!r}"
                )
                assert failure.retryable is False
                assert db is not None and db.engine.panicked
                # reads keep serving from memory
                reader = db.connect("admin")
                if "t" in db.catalog.tables:
                    reader.execute("SELECT * FROM t")
                # writes refuse, without touching the heaps
                before = logical_state(db)
                with pytest.raises(StorageFailedError):
                    reader.execute("INSERT INTO t VALUES (97, 'x', 1)")
                with pytest.raises(StorageFailedError):
                    reader.execute("CREATE TABLE panic_probe (id INT)")
                assert logical_state(db) == before
                # close is idempotent and never raises
                db.close()
                db.close()
                db = failure = None
                gc.collect()
            assert_on_boundary(path, max(completed, -1), f"error_at={at}")
        # the sweep must actually exercise each contract arm
        assert panics > 0
        assert open_failures > 0
        assert clean > 0


# --------------------------------------------------------------------------
# degradation semantics (satellite): targeted contract tests
# --------------------------------------------------------------------------


def seeded_db(path: str, fs: FaultyFilesystem) -> tuple[Database, object]:
    db = Database.open(path, auto_checkpoint_records=0, filesystem=fs)
    session = db.connect("admin")
    session.execute("CREATE TABLE kv (k TEXT PRIMARY KEY, v INT)")
    session.execute("INSERT INTO kv VALUES ('a', 1), ('b', 2)")
    return db, session


class TestDegradationSemantics:
    def test_panic_mode_serves_reads_and_refuses_writes(self, tmp_path):
        fs = FaultyFilesystem(FaultPlan())
        db, session = seeded_db(str(tmp_path / "db"), fs)
        # poison the very next filesystem operation: the WAL append of
        # the following INSERT
        fs.plan = FaultPlan(error_at=fs.ops, error_errno=errno.EIO)
        with pytest.raises(StorageFailedError) as excinfo:
            session.execute("INSERT INTO kv VALUES ('c', 3)")
        assert excinfo.value.retryable is False
        assert db.engine.panicked
        assert db.engine.stats["storage_failures"] == 1

        # reads still serve the in-memory state (which may include the
        # torn commit's in-memory effect — memory is ahead of disk now)
        rows = session.execute("SELECT k FROM kv ORDER BY k").rows
        assert [r[0] for r in rows] in (["a", "b"], ["a", "b", "c"])
        # every write path refuses with the same non-retryable error
        for sql in (
            "INSERT INTO kv VALUES ('d', 4)",
            "UPDATE kv SET v = 9 WHERE k = 'a'",
            "DELETE FROM kv WHERE k = 'a'",
            "CREATE TABLE other (id INT)",
            "GRANT SELECT ON kv TO admin",
        ):
            with pytest.raises(StorageFailedError):
                session.execute(sql)
        with pytest.raises(StorageFailedError):
            db.create_user("late")
        with pytest.raises(StorageFailedError):
            db.checkpoint()
        # transaction control stays allowed (ROLLBACK escape hatch)
        session.execute("BEGIN")
        session.execute("ROLLBACK")
        # close after panic: idempotent, never raises, releases the LOCK
        db.close()
        db.close()
        db2 = Database.open(str(tmp_path / "db"))
        assert sorted(
            row["k"] for row in db2.snapshot()["kv"]
        ) == ["a", "b"], "the failed append must not be half-durable"
        db2.close()

    def test_explicit_transaction_commit_failure_panics(self, tmp_path):
        fs = FaultyFilesystem(FaultPlan())
        db, session = seeded_db(str(tmp_path / "db"), fs)
        session.execute("BEGIN")
        session.execute("UPDATE kv SET v = 100 WHERE k = 'a'")
        fs.plan = FaultPlan(error_at=fs.ops, error_errno=errno.EIO)
        with pytest.raises(StorageFailedError):
            session.execute("COMMIT")
        assert db.engine.panicked
        db.close()
        db2 = Database.open(str(tmp_path / "db"))
        values = {row["k"]: row["v"] for row in db2.snapshot()["kv"]}
        assert values["a"] in (1, 100), "commit batch must be all-or-nothing"
        db2.close()

    def test_enospc_checkpoint_defers_then_succeeds_on_retry(self, tmp_path):
        fs = FaultyFilesystem(FaultPlan())
        db, session = seeded_db(str(tmp_path / "db"), fs)
        # ENOSPC on the snapshot temp-file *write* (ops: open is next,
        # then the single serialized write)
        fs.plan = FaultPlan(error_at=fs.ops + 1, error_errno=errno.ENOSPC)
        with pytest.raises(PersistenceError) as excinfo:
            db.checkpoint()
        assert not isinstance(excinfo.value, StorageFailedError)
        assert "deferred" in str(excinfo.value)
        assert not db.engine.panicked
        assert db.engine.stats["checkpoint_failures"] == 1
        tmp = db.engine.snapshot_path + ".tmp"
        assert not os.path.exists(tmp), "failed checkpoint leaked its temp"
        # the engine is still fully writable...
        session.execute("INSERT INTO kv VALUES ('c', 3)")
        # ...and the retry (fault was one-shot) compacts successfully
        before = db.engine.stats["checkpoints"]
        db.checkpoint()
        assert db.engine.stats["checkpoints"] == before + 1
        db.close()
        db2 = Database.open(str(tmp_path / "db"))
        assert sorted(row["k"] for row in db2.snapshot()["kv"]) == [
            "a",
            "b",
            "c",
        ]
        db2.close()

    def test_enospc_defers_automatic_checkpoints_without_failing_dml(
        self, tmp_path
    ):
        fs = FaultyFilesystem(FaultPlan())
        db = Database.open(
            str(tmp_path / "db"), auto_checkpoint_records=3, filesystem=fs
        )
        engine = db.engine
        session = db.connect("admin")
        session.execute("CREATE TABLE kv (k TEXT PRIMARY KEY, v INT)")
        session.execute("INSERT INTO kv VALUES ('a', 1)")
        # third record: this statement's epilogue runs an auto-checkpoint
        session.execute("INSERT INTO kv VALUES ('b', 2)")
        checkpoints = engine.stats["checkpoints"]
        assert checkpoints >= 1 and not engine._checkpoint_pending
        session.execute("INSERT INTO kv VALUES ('c', 3)")
        session.execute("INSERT INTO kv VALUES ('d', 4)")
        # the next INSERT is the third record since the last compaction;
        # its ops are [WAL write, WAL flush, tmp open, tmp write, ...] —
        # exhaust the "disk" for exactly the snapshot temp write
        fs.plan = FaultPlan(error_at=fs.ops + 3, error_errno=errno.ENOSPC)
        # the DML that triggers the auto-checkpoint must itself succeed —
        # compaction is advisory, durability comes from the WAL
        session.execute("INSERT INTO kv VALUES ('e', 5)")
        assert fs.injected and fs.injected[0][2] == "write"
        assert engine.stats["checkpoint_failures"] == 1
        assert engine._checkpoint_pending, "failed auto-checkpoint re-defers"
        assert not engine.panicked
        # next statement's epilogue retries the checkpoint and succeeds
        session.execute("INSERT INTO kv VALUES ('f', 6)")
        assert engine.stats["checkpoints"] == checkpoints + 1
        assert not engine._checkpoint_pending
        db.close()
        db2 = Database.open(str(tmp_path / "db"))
        assert len(db2.snapshot()["kv"]) == 6
        db2.close()

    def test_orphan_temp_files_are_removed_on_open(self, tmp_path):
        path = str(tmp_path / "db")
        db, session = seeded_db(path, FaultyFilesystem(FaultPlan()))
        db.close()
        tmp = os.path.join(path, "snapshot.json.tmp")
        with open(tmp, "w") as fh:
            fh.write("{garbage")
        db2 = Database.open(path)
        assert not os.path.exists(tmp)
        assert sorted(row["k"] for row in db2.snapshot()["kv"]) == ["a", "b"]
        db2.close()


# --------------------------------------------------------------------------
# FaultyFilesystem mechanics
# --------------------------------------------------------------------------


class TestFaultPlanMechanics:
    def test_torn_write_is_a_deterministic_prefix(self, tmp_path):
        target = str(tmp_path / "torn.bin")
        payload = b"0123456789abcdef"
        cuts = []
        for _ in range(2):
            fs = FaultyFilesystem(FaultPlan(crash_at=1, seed=7))
            with pytest.raises(SimulatedCrash):
                fh = fs.open(target, "wb")
                try:
                    fh.write(payload)
                finally:
                    fh.close()
            with open(target, "rb") as check:
                cuts.append(check.read())
        assert cuts[0] == cuts[1], "same seed must tear at the same byte"
        assert payload.startswith(cuts[0])

    def test_enospc_budget_allows_partial_write(self, tmp_path):
        target = str(tmp_path / "full.bin")
        fs = FaultyFilesystem(FaultPlan(enospc_after_bytes=10))
        fh = fs.open(target, "wb")
        try:
            with pytest.raises(OSError) as excinfo:
                fh.write(b"x" * 64)
        finally:
            fh.close()
        assert excinfo.value.errno == errno.ENOSPC
        assert os.path.getsize(target) == 10

    def test_fsync_counter_is_one_shot(self, tmp_path):
        target = str(tmp_path / "sync.bin")
        fs = FaultyFilesystem(FaultPlan(fail_fsync=2))
        fh = fs.open(target, "wb")
        try:
            fh.write(b"data")
            fs.fsync(fh)  # first fsync: fine
            with pytest.raises(OSError) as excinfo:
                fs.fsync(fh)  # second: injected
            assert excinfo.value.errno == errno.EIO
            fs.fsync(fh)  # one-shot: third succeeds
        finally:
            fh.close()

    def test_ops_log_names_every_operation(self, tmp_path):
        fs = FaultyFilesystem(FaultPlan())
        db, _ = seeded_db(str(tmp_path / "db"), fs)
        db.close()
        assert fs.ops == len(fs.ops_log)
        kinds = {op for _, op, _ in fs.ops_log}
        assert {"open", "lock", "write", "flush", "fsync", "replace"} <= kinds
