"""The durable storage engine: JSONL write-ahead log + snapshots.

File layout (one directory per database)::

    <path>/
      snapshot.json   full state at the last checkpoint (atomic replace);
                      table contents column-major, see SNAPSHOT_FORMAT
      wal.jsonl       one JSON record per committed mutation since then
      LOCK            the single-writer lock: an empty file an open engine
                      holds an exclusive flock on; never unlinked

Any other entry (such as the ``catalogs/`` folder older builds kept
pickled value catalogs in) is never read.

The WAL's record format — one JSON object per line: ``seq``, ``op``,
op-specific fields, ``commit: true`` on the last record of a batch — is
documented where it is produced and applied,
:mod:`repro.minidb.changes`. Recovery hands each replayed record to the
same ``changes.apply`` the statement ran.

Recovery invariants
-------------------

* **Prefix durability.** Recovery applies the longest prefix of the WAL
  whose records are newline-terminated, JSON-parseable, contiguous in
  ``seq``, and end at a ``commit``-marked record; everything after (a
  torn record from a crashed append, an unterminated transaction batch,
  or trailing garbage) is truncated from the file, never half-applied.
* **Checkpoint atomicity.** A snapshot is written to a temp file, fsynced,
  and renamed over the old one before the WAL is truncated. A crash
  between rename and truncate leaves stale WAL records whose ``seq`` is at
  or below the snapshot's ``applied_seq``; recovery skips them.
* **Exact counters.** Heap rid counters and ``(uid, version)`` change
  counters come back exactly as committed, and the process-wide uid
  allocator is advanced past every restored uid.
* **Commit boundary.** Only committed transactions reach
  :meth:`DurableEngine.append_commit` (the transaction manager discards
  rolled-back redo logs), so replay needs no compensation records. The
  WAL-consistency argument assumes minidb's documented single-writer
  usage: sessions do not mutate rows of another session's still-open
  transaction.

An exclusive POSIX ``flock`` on ``LOCK`` enforces a single writer per
directory: a second open, from this process or another, fails loudly
instead of interleaving sequence numbers. The kernel drops the lock when
its holder's descriptor closes or its process dies, so a crashed owner
never blocks an open. ``flock`` is the supported platform's lock (POSIX).

Checkpoint/compaction policy: a checkpoint runs on demand
(:meth:`~repro.minidb.database.Database.checkpoint`) and automatically
once ``auto_checkpoint_records`` WAL records accumulate; automatic
checkpoints are deferred while any explicit transaction is open, because
heaps then contain uncommitted (undo-pending) mutations that must not be
snapshotted.
"""

from __future__ import annotations

import gc
import json
import os
import threading
from typing import TYPE_CHECKING, Any

from ...faults import OS_FILESYSTEM, Filesystem
from .. import changes
from ..errors import PersistenceError, StorageFailedError, TransactionError
from ..storage import HeapTable
from .base import Record, StorageEngine
from .serial import (
    dump_index,
    dump_index_schema,
    dump_privileges,
    dump_statistics,
    dump_table_schema,
    dump_view,
    load_index,
    load_index_schema,
    load_privileges,
    load_statistics,
    load_table_schema,
    load_view,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database

SNAPSHOT_NAME = "snapshot.json"
WAL_NAME = "wal.jsonl"
LOCK_NAME = "LOCK"
#: 2: each table's rows are column-major — ``rids`` plus one value list
#: per column (:meth:`HeapTable.snapshot_state`). 1: ``rows`` as
#: ``[[rid, {column: value}], ...]``; still opened, rewritten as 2 by the
#: next checkpoint.
SNAPSHOT_FORMAT = 2


def _columns_of_rows(rows: "list[list]") -> dict[str, Any]:
    """A format-1 table's ``[[rid, row], ...]`` as format 2's ``rids``
    and ``columns`` (columns in first-seen key order, ``None`` where a
    row lacks one)."""
    names = dict.fromkeys(name for _, row in rows for name in row)
    return {
        "rids": [rid for rid, _ in rows],
        "columns": {name: [row.get(name) for _, row in rows] for name in names},
    }


class DurableEngine(StorageEngine):
    """WAL + snapshot persistence rooted at one database directory."""

    durable = True

    def __init__(
        self,
        path: str,
        auto_checkpoint_records: int = 10_000,
        fsync_commits: bool = False,
        filesystem: Filesystem | None = None,
    ):
        super().__init__()
        #: the I/O seam — every file operation of this engine goes through
        #: it (enforced by the ``fs-seam`` staticcheck rule), so fault
        #: injection can reach each one; the default passthrough returns
        #: raw builtin file objects and costs nothing
        self.fs = filesystem or OS_FILESYSTEM
        self.path = os.path.abspath(path)
        self.snapshot_path = os.path.join(self.path, SNAPSHOT_NAME)
        self.wal_path = os.path.join(self.path, WAL_NAME)
        self.lock_path = os.path.join(self.path, LOCK_NAME)
        #: WAL records between automatic checkpoints (0 disables them)
        self.auto_checkpoint_records = auto_checkpoint_records
        #: fsync the WAL on every commit (crash-beyond-process safety) —
        #: off by default: flush survives process death, which is the
        #: failure model the tests exercise
        self.fsync_commits = fsync_commits
        self._wal = None  #: guarded by self._commit_mutex
        #: last sequence number written or recovered
        #: guarded by self._commit_mutex
        self._seq = 0
        self._records_since_snapshot = 0  #: guarded by self._commit_mutex
        self._checkpoint_pending = False  #: guarded by self._commit_mutex
        self._closed = False  #: guarded by self._commit_mutex
        #: fail-stop panic mode: the OSError that poisoned the WAL, or
        #: ``None`` while healthy. Once set it never clears — a torn or
        #: unflushable WAL write leaves records of unknowable durability,
        #: so all further writes refuse with StorageFailedError while
        #: in-memory reads keep serving (degraded read-only operation)
        #: guarded by self._commit_mutex
        self._panic: OSError | None = None
        #: the open ``LOCK`` file whose flock this engine holds, or None
        self._lock_file = None
        #: serializes WAL appends and checkpoints across sessions: ``seq``
        #: allocation and the physical write happen under one mutex, so
        #: concurrent committers can never interleave or reorder records
        #: (the WAL stays strictly increasing in ``seq``), and a checkpoint
        #: can never swap the WAL file out from under an in-flight append
        self._commit_mutex = threading.RLock()
        #: recovery / write-path observability
        self.stats = {
            "snapshot_loaded": False,
            "wal_replayed": 0,
            "wal_skipped": 0,
            "wal_truncated_bytes": 0,
            "commits": 0,
            "records": 0,
            "wal_appends": 0,
            "wal_bytes": 0,
            "wal_fsyncs": 0,
            "checkpoints": 0,
            "checkpoint_failures": 0,
            "storage_failures": 0,
        }

    # ------------------------------------------------------------ lifecycle

    @property
    def panicked(self) -> bool:
        return self._panic is not None  # staticcheck: ignore[guarded-by] — monotonic flag; racy reads only ever lag the (permanent) transition

    def describe(self) -> str:
        return f"durable({self.path})"

    # staticcheck: ignore[guarded-by] — recovery runs single-threaded,
    # before the engine (or its Database) is shared with any session
    def attach(self, db: "Database") -> None:
        super().attach(db)
        self.fs.makedirs(self.path, exist_ok=True)
        try:
            self._acquire_lock()
            self._remove_orphan_temp()
            fresh = not self.fs.exists(self.snapshot_path)
            if not fresh:
                self._load_snapshot(db)
            self._replay_wal(db)
            self._wal = self.fs.open(self.wal_path, "a", encoding="utf-8")
            if fresh:
                # persist the base state (owner, empty catalog) immediately
                # so a WAL-only directory is never ambiguous about its origin
                self.checkpoint()
        except BaseException:
            # failed recovery must not leave the directory locked: the
            # operator's retry (possibly from another process) would be
            # refused by a lock no live engine holds
            if self._lock_file is not None:
                self._lock_file.close()
                self._lock_file = None
            raise

    def _remove_orphan_temp(self) -> None:
        """Drop the ``snapshot.json.tmp`` a checkpoint that died between
        temp write and atomic replace left behind. Nothing reads it again
        — the atomic protocol only trusts the final name — so it is
        garbage. Runs after :meth:`_acquire_lock`: no live engine's
        checkpoint can be writing it."""
        tmp = self.snapshot_path + ".tmp"
        if self.fs.exists(tmp):
            try:
                self.fs.unlink(tmp)
            except OSError:
                pass

    def close(self) -> None:
        with self._commit_mutex:  # never close mid-append
            if self._closed:
                return
            self._closed = True
            if self._wal is not None:
                try:
                    self._wal.flush()
                    self.fs.fsync(self._wal)
                except (OSError, ValueError):
                    # a panicked (or newly failing) device, or a handle a
                    # failed WAL swap already closed (ValueError): the
                    # final flush is best-effort — close must stay
                    # idempotent and never raise, or degraded shutdown
                    # paths would keep the directory locked
                    pass
                try:
                    self._wal.close()
                except (OSError, ValueError):
                    pass
                self._wal = None
            if self._lock_file is not None:
                self._lock_file.close()
                self._lock_file = None

    #: requires self._commit_mutex
    def _ensure_open(self) -> None:
        # panic outranks closed: a failed WAL swap leaves a dead handle
        # behind, and "storage failed" is the error that explains it
        if self._panic is not None:
            raise StorageFailedError(
                f"storage engine is in fail-stop mode after a WAL write "
                f"failure ({self._panic}); reads still serve from memory — "
                "close, repair the storage, and reopen to recover"
            )
        if self._closed or self._wal is None:
            raise PersistenceError("storage engine is closed")

    #: requires self._commit_mutex
    def _enter_panic(self, exc: OSError) -> None:
        """Flip to fail-stop mode: the WAL can no longer be trusted to
        accept appends, so no further write must reach it (a torn record
        followed by a good one would make the good one unrecoverable —
        replay stops at the tear)."""
        if self._panic is None:
            self._panic = exc
            self.stats["storage_failures"] += 1

    # ---------------------------------------------------- single-writer lock

    def _acquire_lock(self) -> None:
        """Refuse to share the directory with another open engine.

        A second writer would interleave duplicate WAL sequence numbers
        and truncate logs under the first — silent data loss. The guard
        is an exclusive ``flock`` on ``LOCK`` through a descriptor this
        engine keeps until :meth:`close`. A ``flock`` belongs to its open
        file description, so a second open in this process conflicts
        like one in another process, and the kernel drops it when the
        descriptor closes or its process dies: no lock is ever stale.
        The file is never unlinked — a third opener would lock a fresh
        inode while the old one is still held — and never read.
        """
        self._lock_file = self.fs.open(self.lock_path, "ab")
        try:
            self.fs.lock(self._lock_file)
        except BlockingIOError:
            # an engine of this process dropped without close() inside a
            # reference cycle holds its descriptor until it is collected
            gc.collect()
            try:
                self.fs.lock(self._lock_file)
            except BlockingIOError:
                raise PersistenceError(
                    f"database directory {self.path!r} is already open in "
                    "this or another process"
                ) from None

    # -------------------------------------------------------------- commits

    def append_commit(self, records: list[Record]) -> None:
        with self._commit_mutex:
            self._ensure_open()
            lines = []
            last = len(records) - 1
            for position, record in enumerate(records):
                self._seq += 1
                payload = {"seq": self._seq, **record}
                if position == last:
                    # commit marker: recovery only applies whole batches, so
                    # a crash can never half-apply a multi-record transaction
                    payload["commit"] = True
                lines.append(json.dumps(payload, separators=(",", ":")))
            data = "\n".join(lines) + "\n"
            try:
                self._wal.write(data)
                self._wal.flush()
                if self.fsync_commits:
                    self.fs.fsync(self._wal)
            except OSError as exc:
                # the append may be torn on disk (recovery will truncate
                # it); nothing must ever be written after a tear, so the
                # engine goes fail-stop. NOTE the heap mutation this
                # append was persisting is already applied in memory —
                # reads keep serving it, consistent until close/reopen
                # rolls the durable state back to the last good commit.
                self._enter_panic(exc)
                raise StorageFailedError(
                    f"WAL append failed ({exc}); storage engine is now "
                    "fail-stop: writes refuse, in-memory reads keep serving"
                ) from exc
            self._records_since_snapshot += len(records)
            self.stats["commits"] += 1
            self.stats["records"] += len(records)
            self.stats["wal_appends"] += 1
            self.stats["wal_bytes"] += len(data)
            if self.fsync_commits:
                self.stats["wal_fsyncs"] += 1
            if (
                self.auto_checkpoint_records
                and self._records_since_snapshot >= self.auto_checkpoint_records
            ):
                # never checkpoint from inside a commit: the committing
                # session may be mid-statement and still holds its table
                # locks, and a quiesce wait here could sit behind other
                # statements blocked on exactly those locks. Defer to the
                # statement epilogue (maybe_run_pending_checkpoint), which
                # runs after lock release.
                self._checkpoint_pending = True

    # staticcheck: ignore[guarded-by] — benign pre-check race: checkpoint()
    # re-checks every condition under the quiesce window and commit mutex
    def run_pending_checkpoint(self) -> None:
        """Run a deferred auto-checkpoint; called by the database at the
        statement epilogue, after the session released its locks and
        observed a quiescent counter state."""
        if self._checkpoint_pending and not self._closed and self._panic is None:
            self._checkpoint_pending = False
            try:
                self.checkpoint()
            except StorageFailedError:
                # the engine went fail-stop mid-checkpoint (WAL swap
                # failure): no retry can ever succeed, and the innocent
                # statement whose epilogue triggered us already has its
                # own result — writes will surface the panic themselves
                pass
            except (TransactionError, PersistenceError):
                # two transient shapes, one reaction — re-defer and let a
                # later epilogue retry, instead of erroring out the
                # innocent statement whose epilogue triggered us:
                # * TransactionError: a BEGIN raced in between the
                #   caller's quiescence observation and checkpoint()'s
                #   own pre-check (transaction control bypasses
                #   statement admission); the racing transaction's own
                #   epilogue will retry.
                # * PersistenceError: the snapshot temp write failed
                #   (ENOSPC, EIO) — the previous snapshot + WAL are
                #   intact and compaction is merely deferred until the
                #   condition clears (e.g. space returns).
                self._checkpoint_pending = True

    # ---------------------------------------------------------- checkpoints

    def checkpoint(self) -> None:
        """Write a full snapshot and truncate the WAL (compaction).

        Runs inside the database's quiesce window (no statement in
        flight; new statements queue) and under the commit mutex (no WAL
        append can interleave with the file swap), so the snapshot always
        captures a statement-consistent state.
        """
        db = self.db
        assert db is not None
        if db.open_explicit_transactions:
            raise TransactionError(
                "cannot checkpoint while a transaction is in progress: heaps "
                "contain uncommitted changes"
            )
        with db.quiesced(), self._commit_mutex:
            self._ensure_open()  # closed or panicked engines never compact
            if db.open_explicit_transactions:
                # a transaction slipped in between the pre-check above and
                # the quiesce window; its uncommitted in-place changes must
                # not be snapshotted. Re-defer — the transaction's own
                # statement epilogue will retry once it is over. (Waiting
                # for it here would deadlock: its next statement queues on
                # the very quiesce window we hold.)
                self._checkpoint_pending = True
                return
            payload = self._snapshot_payload(db)
            tmp_path = self.snapshot_path + ".tmp"
            try:
                fh = self.fs.open(tmp_path, "w", encoding="utf-8")
                try:
                    # one write call: serialize first, so a torn snapshot
                    # write is one fault point, not thousands
                    fh.write(json.dumps(payload, separators=(",", ":")) + "\n")
                    fh.flush()
                    self.fs.fsync(fh)
                finally:
                    fh.close()
                self.fs.replace(tmp_path, self.snapshot_path)
            except OSError as exc:
                # checkpoint failure is *recoverable*, not fail-stop: the
                # previous snapshot and the (still-growing) WAL are intact,
                # so nothing is lost — compaction is merely deferred (an
                # ENOSPC here clears when space returns). Remove the torn
                # temp so it never accumulates or shadows a later attempt.
                self.stats["checkpoint_failures"] += 1
                if self.fs.exists(tmp_path):
                    try:
                        self.fs.unlink(tmp_path)
                    except OSError:
                        pass
                raise PersistenceError(
                    f"checkpoint failed ({exc}); previous snapshot and WAL "
                    "remain authoritative, compaction deferred"
                ) from exc
            # the snapshot now covers every WAL record; truncate the log
            try:
                if self._wal is not None:
                    self._wal.close()
                self._wal = self.fs.open(self.wal_path, "w", encoding="utf-8")
                self._records_since_snapshot = 0
            except OSError as exc:
                # the old WAL handle is gone and no new one could be
                # opened: appends have nowhere to go — fail-stop. The
                # data is safe (the snapshot just written covers it).
                self._enter_panic(exc)
                raise StorageFailedError(
                    f"WAL truncation after checkpoint failed ({exc}); "
                    "storage engine is now fail-stop"
                ) from exc
            self._checkpoint_pending = False
            self.stats["checkpoints"] += 1

    #: requires self._commit_mutex
    def _snapshot_payload(self, db: "Database") -> dict[str, Any]:
        tables = []
        for schema in db.catalog.tables.values():
            heap = db.heap(schema.name)
            tables.append(
                {
                    "schema": dump_table_schema(schema),
                    "indexes": [
                        dump_index(ix) for ix in heap.indexes.values()
                    ],
                    **heap.snapshot_state(),
                }
            )
        return {
            "format": SNAPSHOT_FORMAT,
            "name": db.name,
            "applied_seq": self._seq,
            "privileges": dump_privileges(db.privileges),
            "tables": tables,
            "views": [dump_view(v) for v in db.catalog.views.values()],
            "indexes": [
                dump_index_schema(ix) for ix in db.catalog.indexes.values()
            ],
            "statistics": [
                dump_statistics(ts) for ts in db.catalog.statistics.values()
            ],
        }

    # ------------------------------------------------------------- recovery

    # staticcheck: ignore[guarded-by] — recovery runs single-threaded,
    # before the engine is shared with any session
    def _load_snapshot(self, db: "Database") -> None:
        try:
            with self.fs.open(self.snapshot_path, "r", encoding="utf-8") as fh:
                data = json.loads(fh.read())
        except (OSError, ValueError) as exc:
            raise PersistenceError(
                f"unreadable snapshot {self.snapshot_path!r}: {exc}"
            ) from exc
        if data.get("format") not in (1, SNAPSHOT_FORMAT):
            raise PersistenceError(
                f"unsupported snapshot format {data.get('format')!r}"
            )
        db.name = data["name"]
        db.privileges = load_privileges(data["privileges"])
        for entry in data["tables"]:
            schema = load_table_schema(entry["schema"])
            db.catalog.add_table(schema)
            if data["format"] == 1:
                entry.update(_columns_of_rows(entry.pop("rows")))
            db.heaps[schema.name.lower()] = HeapTable.from_snapshot(
                schema.name,
                entry["rids"],
                entry["columns"],
                next_rid=entry["next_rid"],
                uid=entry["uid"],
                version=entry["version"],
                indexes=[load_index(ix, schema) for ix in entry["indexes"]],
            )
        for entry in data["views"]:
            db.catalog.add_view(load_view(entry))
        for entry in data["indexes"]:
            db.catalog.add_index(
                load_index_schema(entry, db.catalog.table(entry["table"]))
            )
        # pre-statistics snapshots carry no "statistics" key; they load
        # with an empty catalog and the planner falls back to heuristics
        for entry in data.get("statistics", []):
            db.catalog.statistics[entry["table"].lower()] = load_statistics(
                entry
            )
        self._seq = data["applied_seq"]
        self.stats["snapshot_loaded"] = True

    # staticcheck: ignore[guarded-by] — recovery runs single-threaded,
    # before the engine is shared with any session
    def _replay_wal(self, db: "Database") -> None:
        """Apply the longest durable WAL prefix; truncate everything after.

        Durable prefix = complete (newline-terminated, parseable,
        seq-contiguous) records up to and including the last
        commit-marked one. Records of an unterminated trailing batch —
        a transaction whose commit marker never hit the disk — are
        truncated together with any torn bytes, so crash recovery is
        atomic at transaction granularity, not just record granularity.
        """
        if not self.fs.exists(self.wal_path):
            return
        with self.fs.open(self.wal_path, "rb") as fh:
            data = fh.read()
        valid_end = 0
        offset = 0
        last_seq: int | None = None
        pending: list[Record] = []
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline == -1:
                break  # un-terminated final line: torn append
            try:
                record = json.loads(data[offset:newline].decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                break
            if not isinstance(record, dict) or not isinstance(
                record.get("seq"), int
            ):
                break
            seq = record["seq"]
            if last_seq is not None and seq != last_seq + 1:
                break  # sequence gap: everything after is not trustworthy
            last_seq = seq
            offset = newline + 1
            pending.append(record)
            if record.get("commit"):
                for batched in pending:
                    if batched["seq"] > self._seq:
                        self._apply(db, batched)
                        self._seq = batched["seq"]
                        self.stats["wal_replayed"] += 1
                    else:
                        # remnant from a checkpoint that crashed between
                        # snapshot rename and WAL truncation — already in
                        # the snapshot
                        self.stats["wal_skipped"] += 1
                pending = []
                valid_end = offset
        if valid_end < len(data):
            self.stats["wal_truncated_bytes"] += len(data) - valid_end
            with self.fs.open(self.wal_path, "r+b") as fh:
                fh.truncate(valid_end)
        self._records_since_snapshot += self.stats["wal_replayed"]

    # ---------------------------------------------------------- WAL replay

    def _apply(self, db: "Database", record: Record) -> None:
        try:
            # the code the statement ran; recovery never rolls back, so
            # the undo it returns is dropped
            changes.apply(db, record)
        except PersistenceError:
            raise
        except Exception as exc:
            raise PersistenceError(
                f"WAL replay failed at seq {record.get('seq')} "
                f"(op {record.get('op')!r}): {exc}"
            ) from exc
