"""Undo-log transaction manager giving minidb its ACID semantics.

Every mutation goes through :meth:`TransactionManager.apply`, which
performs it (:func:`repro.minidb.changes.apply`) and appends the closure
that reverses it to the active transaction's undo log. ``ROLLBACK`` runs
the log in reverse; ``COMMIT`` discards it. Statements executed outside
an explicit transaction run in autocommit mode: a tiny implicit
transaction wraps each one, so a failed multi-row INSERT still rolls back
atomically (statement-level atomicity, as in PostgreSQL).

Savepoints are implemented as positions in the undo log.

DDL is transactional too (PostgreSQL-style): the undo of CREATE/DROP TABLE
restores catalog *and* heap state.

Durability hooks
----------------

When the database runs on a durable storage engine, ``apply`` also keeps
the record it was given in the transaction's **redo log** — undo and redo
are paired in that one method, so a mutation cannot be logged for one and
not the other. The redo log is truncated in lockstep with the undo log by
savepoint/statement rollbacks, discarded by ``ROLLBACK``, and flushed to
the engine's write-ahead log at the commit boundary — so only mutations
of *committed* transactions ever reach disk, and recovery replays them
through the same ``changes.apply``. Running an undo never logs redo
(rolled-back work is invisible to the WAL by construction, not by
compensation records).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from . import changes
from .changes import Record, Undo
from .errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover
    from .database import Database


class TransactionHooks(Protocol):
    """Durability callbacks a :class:`TransactionManager` reports into.

    Implemented by :class:`~repro.minidb.database.Database` when the
    database runs on a durable engine: ``commit_redo`` appends a committed
    transaction's redo records to the WAL; the begin/finish pair lets the
    database track open *explicit* transactions, so checkpoints never
    snapshot heaps containing uncommitted (undo-pending) mutations.
    """

    def commit_redo(self, records: list[Record]) -> None: ...

    def explicit_began(self) -> None: ...

    def explicit_finished(self) -> None: ...


@dataclass
class Transaction:
    """State of one open transaction."""

    txid: int
    undo_log: list[Undo] = field(default_factory=list)
    redo_log: list[Record] = field(default_factory=list)
    #: savepoint name -> (undo position, redo position)
    savepoints: dict[str, tuple[int, int]] = field(default_factory=dict)
    implicit: bool = False


class TransactionManager:
    """Per-session transaction state machine.

    The manager is deliberately session-scoped — its undo/redo logs are
    only ever touched by the session's own thread, so it needs no locking
    of its own. Concurrency enters at the two shared touchpoints it calls
    *out* to, both of which are thread-safe: the hooks' counter updates
    are mutex-guarded by the database, and ``commit_redo`` lands in the
    durable engine's serialized ``append_commit`` (one mutex allocates
    WAL ``seq`` numbers and performs the write, so concurrent committers
    interleave whole transactions, never records, and ``seq`` stays
    strictly monotonic). Cross-session *data* conflicts are the lock
    manager's job (see :mod:`repro.service.locks`), not this class's.
    """

    def __init__(self, hooks: TransactionHooks | None = None):
        self._next_txid = 1
        self.current: Transaction | None = None
        self.hooks = hooks
        #: statistics the benchmarks read
        self.begun = 0
        self.committed = 0
        self.rolled_back = 0

    # ------------------------------------------------------------ queries

    @property
    def in_transaction(self) -> bool:
        return self.current is not None and not self.current.implicit

    # ------------------------------------------------------------- control

    def begin(self) -> Transaction:
        if self.in_transaction:
            raise TransactionError("a transaction is already in progress")
        tx = self._start(implicit=False)
        if self.hooks is not None:
            self.hooks.explicit_began()
        return tx

    def begin_implicit(self) -> Transaction:
        """Start the autocommit wrapper around a single statement."""
        if self.current is not None:
            raise TransactionError("nested implicit transaction")
        return self._start(implicit=True)

    def _start(self, implicit: bool) -> Transaction:
        tx = Transaction(self._next_txid, implicit=implicit)
        self._next_txid += 1
        self.current = tx
        if not implicit:
            self.begun += 1
        return tx

    def commit(self) -> None:
        if self.current is None:
            raise TransactionError("no transaction in progress")
        tx = self.current
        self.current = None
        if not tx.implicit:
            self.committed += 1
        if self.hooks is not None:
            # flush first: a WAL append failure must surface to the caller
            # *after* local state says committed — mirroring the undo-log
            # design where heap state is already final at this point. The
            # finally keeps the open-transaction count honest even when
            # the flush fails (disk full, engine closed): the transaction
            # is locally over either way, and a leaked count would block
            # every future checkpoint.
            try:
                if tx.redo_log:
                    self.hooks.commit_redo(tx.redo_log)
            finally:
                if not tx.implicit:
                    self.hooks.explicit_finished()

    def rollback(self) -> None:
        if self.current is None:
            raise TransactionError("no transaction in progress")
        tx = self.current
        for undo in reversed(tx.undo_log):
            undo()
        self.current = None
        if not tx.implicit:
            self.rolled_back += 1
            if self.hooks is not None:
                self.hooks.explicit_finished()

    # ---------------------------------------------------------- savepoints

    def savepoint(self, name: str) -> None:
        if not self.in_transaction:
            raise TransactionError("SAVEPOINT requires an explicit transaction")
        tx = self.current
        tx.savepoints[name.lower()] = (len(tx.undo_log), len(tx.redo_log))

    def rollback_to_savepoint(self, name: str) -> None:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        tx = self.current
        key = name.lower()
        if key not in tx.savepoints:
            raise TransactionError(f"savepoint {name!r} does not exist")
        undo_position, redo_position = tx.savepoints[key]
        self._truncate_to(tx, undo_position, redo_position)
        # drop savepoints created after this one
        tx.savepoints = {
            n: marks for n, marks in tx.savepoints.items()
            if marks[0] <= undo_position
        }

    def release_savepoint(self, name: str) -> None:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        key = name.lower()
        if key not in self.current.savepoints:
            raise TransactionError(f"savepoint {name!r} does not exist")
        del self.current.savepoints[key]

    @staticmethod
    def _truncate_to(tx: Transaction, undo_position: int, redo_position: int) -> None:
        """Undo (and un-log) everything past the given log positions."""
        while len(tx.undo_log) > undo_position:
            tx.undo_log.pop()()
        del tx.redo_log[redo_position:]

    # ------------------------------------------------------------ mutation

    def apply(self, db: "Database", record: Record) -> None:
        """Perform one change inside the current (possibly implicit)
        transaction: its undo joins the undo log and — when a durable
        engine is listening — the record, stamped by the change, joins
        the redo log. A change that raises has logged nothing."""
        tx = self.current
        if tx is None:
            raise TransactionError(
                "internal error: mutation outside any transaction context"
            )
        tx.undo_log.append(changes.apply(db, record))
        if self.hooks is not None:
            tx.redo_log.append(record)


class StatementGuard:
    """Context manager giving a statement autocommit-or-enlist semantics.

    Inside an explicit transaction, a failing statement rolls back only its
    own changes (via a hidden savepoint) while keeping the transaction open
    — mirroring the behavior agents rely on to retry failed SQL without
    losing prior work.
    """

    def __init__(self, manager: TransactionManager):
        self.manager = manager
        self._implicit = False
        self._marks: tuple[int, int] | None = None

    def __enter__(self) -> "StatementGuard":
        if self.manager.current is None:
            self.manager.begin_implicit()
            self._implicit = True
        else:
            tx = self.manager.current
            self._marks = (len(tx.undo_log), len(tx.redo_log))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            if self._implicit:
                self.manager.commit()
            return False
        # failure: undo this statement's changes only
        if self._implicit:
            self.manager.rollback()
        else:
            tx = self.manager.current
            assert tx is not None and self._marks is not None
            TransactionManager._truncate_to(tx, *self._marks)
        return False  # propagate the exception
