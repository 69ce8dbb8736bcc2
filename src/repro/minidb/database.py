"""Database facade and session management — minidb's public entry point.

Typical use::

    db = Database(owner="admin")
    admin = db.connect("admin")
    admin.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
    admin.execute("INSERT INTO t VALUES (1, 'a')")
    rows = admin.execute("SELECT * FROM t").rows

Privilege enforcement happens here, before execution: each statement is
parsed, statically analyzed (:mod:`repro.minidb.analysis`), and every
``(action, object, columns)`` access is checked against the
:class:`~repro.minidb.privileges.PrivilegeManager`. The owner bypasses
checks, like a PostgreSQL superuser.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Any, Callable

from ..obs import CounterMapView, MetricsRegistry, StatementTracer
from . import ast_nodes as ast
from . import changes
from .analysis import StatementAnalysis, analyze
from .catalog import Catalog
from .engines import DurableEngine, InMemoryEngine, StorageEngine
from .errors import (
    DeadlockError,
    LockTimeoutError,
    MiniDBError,
    PermissionDenied,
    StorageFailedError,
    TransactionError,
)
from .executor import Executor
from .parser import parse, parse_cache_stats, parse_script
from .privileges import PrivilegeManager
from .result import ResultSet
from .storage import HeapTable
from .transactions import StatementGuard, TransactionManager

_session_ids = itertools.count(1)


class Session:
    """One user's connection to a database.

    Holds per-connection transaction state; statements run in autocommit
    mode unless BEGIN was issued.

    When the database has a lock manager installed (the multi-session
    service layer does this), the session is also the lock *owner*: the
    executor acquires table locks against it per statement, and the
    session releases them at transaction end (strict two-phase locking —
    autocommit statements release at statement end, explicit transactions
    at COMMIT/ROLLBACK). A session chosen as deadlock victim has its whole
    transaction rolled back, so its locks free immediately and the error
    it surfaces is safely retryable.
    """

    def __init__(self, db: "Database", user: str):
        self.db = db
        self.user = user
        # on a durable engine the database observes the commit boundary
        # (redo flush) and explicit-transaction lifetimes; without hooks
        # the manager keeps no redo log
        self.tx = TransactionManager(hooks=db if db.engine.durable else None)
        #: statements attempted through this session, failed parses
        #: included (``system.sessions`` reports it)
        self.statement_count = 0
        #: stable human-readable lock-owner label for diagnostics
        self.label = f"{user}#{next(_session_ids)}"
        db.live_sessions.add(self)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<Session {self.label}>"

    # ------------------------------------------------------------- locking

    def lock_table(self, table: str, mode: str) -> None:
        """Acquire a table lock for this session (no-op without a lock
        manager). Called by the executor: ``S`` per table read, ``X`` per
        table mutated; held until transaction end."""
        manager = self.db.lock_manager
        if manager is None:
            return
        with self.db.tracer.span("lock-wait", table=table, mode=mode):
            manager.acquire(self, table, mode)

    def release_locks(self) -> None:
        manager = self.db.lock_manager
        if manager is not None:
            manager.release_all(self)

    # ------------------------------------------------------------ execution

    def execute(self, sql: str, _skip_privileges: bool = False) -> ResultSet:
        """Parse, authorize, and execute a single SQL statement.

        With tracing on (or a slow-statement threshold set) a
        :class:`~repro.obs.tracing.StatementTrace` is built around the
        statement; the inner hooks (plan/lock-wait/execute/wal-flush/
        checkpoint spans, executor scan/join events) find it through the
        tracer's thread-local slot, and find a no-op span when dark.
        """
        self.statement_count += 1
        tracer = self.db.tracer
        opts = self.db.observability_options
        trace = None
        if opts["tracing"] or opts["slow_statement_s"] is not None:
            trace = tracer.start(sql, user=self.user, session=self.label)
        result: ResultSet | None = None
        error: BaseException | None = None
        try:
            with tracer.span("parse"):
                stmt = parse(sql)
            result = self.execute_statement(stmt, _skip_privileges=_skip_privileges)
            return result
        except MiniDBError as exc:
            error = exc
            raise
        finally:
            if trace is not None:
                self._finish_trace(trace, result, error)

    def _finish_trace(
        self, trace: Any, result: ResultSet | None, error: BaseException | None
    ) -> None:
        tracer = self.db.tracer
        status = "ERROR"
        if result is not None:
            status = result.status or "OK"
            trace.rows_returned = (
                len(result.rows) if result.rows else (result.rowcount or 0)
            )
        tracer.finish(trace, status=status, error=error)
        slow_s = self.db.observability_options["slow_statement_s"]
        if slow_s is not None and trace.duration_s >= slow_s:
            # sql + trace + the rendered lines of the plan a SELECT
            # actually ran (empty for everything else)
            tracer.record_slow(
                {
                    "sql": trace.sql,
                    "duration_s": round(trace.duration_s, 9),
                    "trace": trace.to_dict(),
                    "plan": trace.plan.lines() if trace.plan is not None else [],
                }
            )
        trace.release_plan()

    def execute_script(self, sql: str) -> list[ResultSet]:
        """Execute a ``;``-separated script, stopping at the first error."""
        results = []
        for stmt in parse_script(sql):
            results.append(self.execute_statement(stmt))
        return results

    def execute_statement(
        self, stmt: ast.Statement, _skip_privileges: bool = False
    ) -> ResultSet:
        tracer = self.db.tracer
        with tracer.span("plan"):
            analysis = analyze(stmt, self.db.catalog)
        if not _skip_privileges:
            self.db.authorize(self.user, stmt, analysis)
        self.db.ensure_writable(analysis)
        try:
            return self._dispatch_statement(stmt)
        except (DeadlockError, LockTimeoutError) as exc:
            # deadlock victim or lock-wait timeout: abort the whole
            # transaction so every lock this session holds releases (the
            # cycle's survivors / the blocked peers can proceed). Both
            # errors are retryable by contract, and retryable means the
            # client may simply re-issue BEGIN — which only works if the
            # old transaction is gone and its locks are free
            trace = tracer.current()
            if trace is not None:
                trace.annotate("concurrency_abort", type(exc).__name__)
            if self.tx.in_transaction:
                with tracer.span("rollback", reason=type(exc).__name__):
                    self.tx.rollback()
            raise
        finally:
            if self.db.lock_manager is not None and not self.tx.in_transaction:
                # transaction over (autocommit end, COMMIT, ROLLBACK, or
                # abort above): strict 2PL releases everything here
                self.release_locks()
            # deferred auto-checkpoints run here — after lock release, so
            # the quiesce wait can never face statements blocked on locks
            # this session still holds
            self.db.maybe_run_pending_checkpoint()

    def _dispatch_statement(self, stmt: ast.Statement) -> ResultSet:
        # transaction control bypasses the statement guard
        if isinstance(stmt, ast.BeginStatement):
            self.tx.begin()
            return ResultSet(status="BEGIN")
        if isinstance(stmt, ast.CommitStatement):
            if not self.tx.in_transaction:
                raise TransactionError("no transaction in progress")
            self.tx.commit()
            return ResultSet(status="COMMIT")
        if isinstance(stmt, ast.RollbackStatement):
            if stmt.savepoint:
                self.tx.rollback_to_savepoint(stmt.savepoint)
                return ResultSet(status=f"ROLLBACK TO {stmt.savepoint}")
            if not self.tx.in_transaction:
                raise TransactionError("no transaction in progress")
            self.tx.rollback()
            return ResultSet(status="ROLLBACK")
        if isinstance(stmt, ast.SavepointStatement):
            self.tx.savepoint(stmt.name)
            return ResultSet(status=f"SAVEPOINT {stmt.name}")
        if isinstance(stmt, ast.ReleaseSavepointStatement):
            self.tx.release_savepoint(stmt.name)
            return ResultSet(status=f"RELEASE {stmt.name}")

        if isinstance(stmt, (ast.GrantStatement, ast.RevokeStatement)):
            # privilege mutations run inside the statement-admission
            # window so a deferred checkpoint never snapshots them
            # half-applied (the WAL append and the _users mutation must
            # both land on the same side of the snapshot)
            self.db.statement_started()
            try:
                if isinstance(stmt, ast.GrantStatement):
                    return self.db.apply_grant(self.user, stmt)
                return self.db.apply_revoke(self.user, stmt)
            finally:
                self.db.statement_finished()

        self.db.statement_started()
        try:
            with self.db.tracer.span("execute"), StatementGuard(self.tx):
                return self.db.executor.execute(stmt, self)
        finally:
            self.db.statement_finished()

    # --------------------------------------------------------- conveniences

    def query(self, sql: str) -> list[dict[str, Any]]:
        """Run a SELECT and return dict rows."""
        return self.execute(sql).to_dicts()

    def scalar(self, sql: str) -> Any:
        return self.execute(sql).scalar()

    @property
    def in_transaction(self) -> bool:
        return self.tx.in_transaction


class _QuiesceGuard:
    """Drains in-flight statements and blocks new ones for a checkpoint."""

    def __init__(self, db: "Database"):
        self.db = db

    def __enter__(self) -> "_QuiesceGuard":
        db = self.db
        with db._quiesce:
            while db._checkpointing:
                db._quiesce.wait()
            db._checkpointing = True
            while db._inflight > 0:
                db._quiesce.wait()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        db = self.db
        with db._quiesce:
            db._checkpointing = False
            db._quiesce.notify_all()


class Database:
    """A minidb database instance shared by sessions.

    Storage is pluggable: the default :class:`~repro.minidb.engines.
    InMemoryEngine` keeps everything in process memory (the historical
    behavior), while :meth:`open` mounts a directory-backed
    :class:`~repro.minidb.engines.DurableEngine` whose WAL + snapshot
    files survive restarts. The facade routes the three durability
    touchpoints to the engine: recovery (at construction), the
    transaction-commit boundary (redo flush), and checkpoint/close.
    """

    def __init__(
        self,
        owner: str = "admin",
        name: str = "main",
        engine: StorageEngine | None = None,
    ):
        self.name = name
        self.engine = engine or InMemoryEngine()
        self.catalog = Catalog()
        self.heaps: dict[str, HeapTable] = {}
        self.privileges = PrivilegeManager(owner)
        self.executor = Executor(self)
        #: optional table-level lock manager (duck-typed: ``acquire(owner,
        #: table, mode)`` / ``release_all(owner)``). ``None`` — the default
        #: — means single-threaded use with zero locking overhead; the
        #: multi-session service layer installs a
        #: :class:`repro.service.LockManager` here
        self.lock_manager: Any | None = None
        #: guards the cross-session counters below (open-transaction and
        #: in-flight-statement counts) against concurrent sessions; never
        #: held while executing statements
        self._mutex = threading.Lock()
        #: condition on the same mutex coordinating statement admission
        #: with checkpoint quiescence (see :meth:`quiesced`)
        self._quiesce = threading.Condition(self._mutex)
        self._checkpointing = False  #: guarded by self._mutex
        #: number of currently open explicit transactions across sessions —
        #: maintained via TransactionHooks on durable engines, used to keep
        #: checkpoints away from heaps holding uncommitted changes
        #: guarded by self._mutex
        self._open_explicit = 0
        #: statements currently inside the executor across all sessions —
        #: auto-checkpoints defer while any are running, because a snapshot
        #: taken mid-statement would capture half-applied mutations
        #: guarded by self._mutex
        self._inflight = 0
        #: unified metrics registry (PR 9): every counter the engine keeps
        #: is either a registry instrument or re-exported through an
        #: attached collector source (engine stats, lock stats, retrieval
        #: cache stats, service metrics)
        self.metrics = MetricsRegistry()
        #: access-path and join-strategy counters maintained by the
        #: executor, backed by registry counters (atomic increments — the
        #: old plain-dict bumps could lose updates across executor
        #: threads); ``planner_stats`` stays the compatible read view.
        #: ``batch_scans`` counts every base-table scan a SELECT block
        #: runs (all of them read column batches; UPDATE/DELETE target
        #: scans are not counted) — the key stays because the end-to-end
        #: benchmark names ``minidb.planner.batch_scans``
        self._planner_counters = {
            name: self.metrics.counter(
                f"minidb_planner_{name}_total", f"planner access-path count: {name}"
            )
            for name in (
                "seq_scans",
                "index_scans",
                "range_scans",
                "union_scans",
                "ordered_scans",
                "topn_limits",
                "hash_joins",
                "nested_loop_joins",
                "batch_scans",
            )
        }
        self.planner_stats = CounterMapView(self._planner_counters)
        #: planner toggles (benchmark baselines / debugging):
        #: ``enable_hash_join=False`` forces the nested-loop fallback;
        #: ``enable_index_scan=False`` forces sequential scans (disables
        #: equality probes, range scans, and ordered index scans);
        #: ``enable_topn=False`` forces full sorts under ORDER BY+LIMIT;
        #: ``enable_compiled_predicates=False`` forces the AST-walking
        #: expression interpreter at every expression site of the SELECT
        #: pipeline and DML target filtering; ``batch_size`` is the rows
        #: per :class:`repro.minidb.batch.RowBatch` and per kernel call
        #: (interpreter at ``batch_size=1`` is the reference leg)
        self.planner_options = {
            "enable_hash_join": True,
            "enable_index_scan": True,
            "enable_topn": True,
            "enable_compiled_predicates": True,
            "batch_size": 1024,
        }
        #: shared column-exemplar catalog cache, lazily attached by
        #: ``repro.core.minidb_binding`` (kept as a plain slot so minidb
        #: has no dependency on the retrieval layer)
        self.retrieval_cache: Any | None = None
        #: observability switches (all default to the dark, zero-cost
        #: configuration): ``tracing`` records finished statements into the
        #: tracer ring (and the optional ``trace_sink`` JSONL path);
        #: ``slow_statement_s`` captures SQL + trace + EXPLAIN plan for
        #: statements at or above the threshold; ``redact_literals``
        #: strips literal values from captured SQL
        self.observability_options: dict[str, Any] = {
            "tracing": False,
            "slow_statement_s": None,
            "redact_literals": False,
            "trace_sink": None,
        }
        #: per-statement structured tracing (ring buffer + thread-local
        #: current-trace slot); shares the engine's Filesystem seam so a
        #: JSONL trace sink is fault-injectable like the WAL
        self.tracer = StatementTracer(
            self.observability_options,
            registry=self.metrics,
            filesystem=getattr(self.engine, "fs", None),
        )
        #: live sessions (weak — sessions die with their owners) feeding
        #: the ``system.sessions`` view
        self.live_sessions: "weakref.WeakSet[Session]" = weakref.WeakSet()
        self.metrics.attach_source("engine", self._engine_metric_samples)
        self.metrics.attach_source("locks", self._lock_metric_samples)
        self.metrics.attach_source("retrieval", self._retrieval_metric_samples)
        self.metrics.attach_source("sessions", self._session_metric_samples)
        self.metrics.attach_source("parse_cache", self._parse_cache_metric_samples)
        # recover persistent state (no-op for the in-memory engine); note
        # a recovered snapshot replaces the owner/privileges constructed
        # above — the directory's persisted identity wins
        self.engine.attach(self)

    # ----------------------------------------------------------- durability

    @classmethod
    def open(
        cls,
        path: str,
        owner: str = "admin",
        name: str = "main",
        auto_checkpoint_records: int = 10_000,
        fsync_commits: bool = False,
        filesystem: Any | None = None,
    ) -> "Database":
        """Open (or create) a durable database rooted at directory ``path``.

        An existing directory is recovered exactly: snapshot load, then
        WAL-after-snapshot replay with torn-tail truncation. ``owner`` and
        ``name`` only seed a *fresh* directory; a recovered snapshot's
        persisted identity takes precedence. ``filesystem`` substitutes
        the engine's I/O seam (a :class:`repro.faults.Filesystem`) —
        fault-injection harnesses pass a scripted
        :class:`repro.faults.FaultyFilesystem` here.
        """
        return cls(
            owner=owner,
            name=name,
            engine=DurableEngine(
                path,
                auto_checkpoint_records=auto_checkpoint_records,
                fsync_commits=fsync_commits,
                filesystem=filesystem,
            ),
        )

    def checkpoint(self) -> None:
        """Compact the durable representation (snapshot + WAL truncation)."""
        self.engine.checkpoint()

    def close(self) -> None:
        """Flush and detach the storage engine; sessions must not be used
        afterwards on a durable database."""
        self.engine.close()

    @property
    def open_explicit_transactions(self) -> int:
        return self._open_explicit  # staticcheck: ignore[guarded-by] — racy monitoring/pre-check read; every correctness-bearing check re-runs under the quiesce window

    @property
    def inflight_statements(self) -> int:
        return self._inflight  # staticcheck: ignore[guarded-by] — racy monitoring read (observability only)

    def ensure_writable(self, analysis: StatementAnalysis) -> None:
        """Refuse mutating statements while the engine is in fail-stop
        panic mode (see :class:`~repro.minidb.errors.StorageFailedError`).

        Checked *before* execution so the in-memory heaps never apply a
        mutation whose WAL append is known to be impossible — reads keep
        serving a consistent (pre-failure) state instead of one that
        silently diverges from what recovery will reconstruct.
        Transaction control stays allowed: a client must still be able to
        ROLLBACK its way out of an open transaction.
        """
        if analysis.is_read_only or analysis.is_transaction_control:
            return
        for access in analysis.accesses:
            # the system.* namespace is reserved for the read-only
            # observability views (covers quoted identifiers like
            # CREATE TABLE "system.statements" that would shadow them)
            if access.obj.startswith("system.") and access.action in (
                "INSERT",
                "UPDATE",
                "DELETE",
                "CREATE",
                "DROP",
                "ALTER",
                "GRANT",
            ):
                raise PermissionDenied(
                    f"system catalog {access.obj!r} is read-only"
                )
        if self.engine.panicked:
            raise StorageFailedError(
                "storage engine is in fail-stop mode: the database is "
                "serving reads only; close, repair storage, and reopen"
            )

    def statement_started(self) -> None:
        """Admit one statement into the executor.

        Blocks while a checkpoint is snapshotting: heaps must not change
        under the snapshot writer, and a statement started mid-snapshot
        could be captured half-applied. In-memory engines never
        checkpoint, so they skip the shared mutex entirely (the module's
        zero-overhead-when-unused contract).
        """
        if not self.engine.durable:
            return
        with self._quiesce:
            if self._checkpointing:
                with self.tracer.span("checkpoint-stall"):
                    while self._checkpointing:
                        self._quiesce.wait()
            self._inflight += 1

    def statement_finished(self) -> None:
        if not self.engine.durable:
            return
        with self._quiesce:
            self._inflight = max(0, self._inflight - 1)
            self._quiesce.notify_all()

    def maybe_run_pending_checkpoint(self) -> None:
        """Run a deferred auto-checkpoint if the database looks quiescent.

        Called by sessions at the end of :meth:`Session.execute_statement`
        — crucially *after* lock release, so the checkpoint's quiesce wait
        never deadlocks against a statement blocked on this session's
        locks. The look is racy by design; :meth:`DurableEngine.checkpoint`
        re-checks (and re-defers) under its own quiesce window.
        """
        if not isinstance(self.engine, DurableEngine):
            return
        with self._quiesce:
            quiesced = self._inflight == 0 and self._open_explicit == 0
        if quiesced:
            with self.tracer.span("checkpoint"):
                self.engine.run_pending_checkpoint()

    def quiesced(self) -> "_QuiesceGuard":
        """Context manager giving the caller (a checkpoint) a window with
        no statement in flight; new statements queue until it exits."""
        return _QuiesceGuard(self)

    def bump_planner_stat(self, name: str) -> None:
        """Thread-safe increment of one access-path/join-strategy counter."""
        self._planner_counters[name].inc()

    # -------------------------------------------------- metric collectors

    def _engine_metric_samples(self) -> dict[str, Any]:
        if not self.engine.durable:
            return {}
        samples = {
            f"minidb_engine_{key}": value
            for key, value in self.engine.stats.items()
            if isinstance(value, (int, float))
        }
        samples["minidb_engine_panicked"] = 1 if self.engine.panicked else 0
        return samples

    def _lock_metric_samples(self) -> dict[str, Any]:
        manager = self.lock_manager
        if manager is None:
            return {}
        samples = {
            f"minidb_lock_{key}": value
            for key, value in manager.stats.items()
            if isinstance(value, (int, float))
        }
        samples["minidb_lock_waiting"] = manager.waiting_count()
        return samples

    def _retrieval_metric_samples(self) -> dict[str, Any]:
        cache = self.retrieval_cache
        if cache is None:
            return {}
        samples = {
            f"minidb_retrieval_cache_{key}": value
            for key, value in getattr(cache, "stats", {}).items()
            if isinstance(value, (int, float))
        }
        store = getattr(cache, "store", None)
        if store is not None:
            for key, value in getattr(store, "stats", {}).items():
                if isinstance(value, (int, float)):
                    samples[f"minidb_retrieval_store_{key}"] = value
        # what top_k pruned, summed over the catalogs held now (gauges:
        # an evicted catalog takes its share with it)
        for catalog in getattr(cache, "cached_catalogs", list)():
            for key, value in catalog.stats.items():
                name = f"minidb_retrieval_catalog_{key}"
                samples[name] = samples.get(name, 0) + value
        return samples

    def _session_metric_samples(self) -> dict[str, Any]:
        return {"minidb_sessions_live": len(self.live_sessions)}

    @staticmethod
    def _parse_cache_metric_samples() -> dict[str, Any]:
        # the text → AST cache belongs to the process, not to a database:
        # every Database in it reports the same three numbers
        return {
            f"minidb_parse_cache_{key}": value
            for key, value in parse_cache_stats().items()
        }

    def ensure_retrieval_cache(self, factory: Callable[[], Any]) -> Any:
        """Lazily attach the shared retrieval cache exactly once.

        Concurrent sessions race to the first ``get_value`` call; without
        the guard, both would build a cache and one would be silently
        dropped together with any catalog it already built.
        """
        with self._mutex:
            if self.retrieval_cache is None:
                self.retrieval_cache = factory()
            return self.retrieval_cache

    # -------------------------------------------- TransactionHooks protocol

    def commit_redo(self, records: list[dict[str, Any]]) -> None:
        with self.tracer.span("wal-flush", records=len(records)):
            self.engine.append_commit(records)

    def explicit_began(self) -> None:
        with self._mutex:
            self._open_explicit += 1

    def explicit_finished(self) -> None:
        # no checkpoint trigger here: the finishing session may still hold
        # table locks (released later in execute_statement's finally),
        # which a quiesce wait must never sit behind — the statement's
        # epilogue calls maybe_run_pending_checkpoint at the safe point
        with self._mutex:
            self._open_explicit = max(0, self._open_explicit - 1)

    # ------------------------------------------------------------- sessions

    def connect(self, user: str) -> Session:
        """Open a session for ``user`` (auto-registering unknown users would
        hide configuration bugs, so unknown users are rejected)."""
        if not self.privileges.has_user(user):
            raise PermissionDenied(f"role {user!r} does not exist")
        return Session(self, user)

    def create_user(self, name: str) -> None:
        if self.engine.panicked:
            raise StorageFailedError(
                "storage engine is in fail-stop mode: cannot create users"
            )
        # same admission-window discipline as GRANT/REVOKE statements
        # (see Session._dispatch_statement)
        self.statement_started()
        try:
            self._apply_privilege_change({"op": "create_user", "user": name})
        finally:
            self.statement_finished()

    # ---------------------------------------------------------- authorizing

    def authorize(
        self, user: str, stmt: ast.Statement, analysis: StatementAnalysis
    ) -> None:
        """Enforce database-side privileges for one statement."""
        if self.privileges.is_owner(user):
            return
        if analysis.is_transaction_control:
            return
        if isinstance(stmt, (ast.GrantStatement, ast.RevokeStatement)):
            raise PermissionDenied(
                f"user {user!r} may not GRANT or REVOKE privileges"
            )
        for access in analysis.accesses:
            if access.action == "SELECT" and access.obj.startswith("system."):
                # system views are world-readable, pg_catalog-style: every
                # authenticated session may introspect the service
                continue
            if access.action == "CREATE" and not self.catalog.has_object(access.obj):
                # creating a new object: CREATE is a database-wide privilege
                self.privileges.check(user, "CREATE", "*")
                continue
            columns = access.column_set()
            self.privileges.check(user, access.action, access.obj, columns)

    # ----------------------------------------------------------- grants API

    def apply_grant(self, issuer: str, stmt: ast.GrantStatement) -> ResultSet:
        if not self.privileges.is_owner(issuer):
            raise PermissionDenied(f"user {issuer!r} may not GRANT privileges")
        # every object before the first grant: the statement is one record
        # and applies whole or not at all
        for obj in stmt.objects:
            if obj != "*" and not self.catalog.has_object(obj):
                raise MiniDBError(f"relation {obj!r} does not exist")
        self._apply_privilege_change(self._privilege_record("grant", stmt))
        return ResultSet(status="GRANT")

    def apply_revoke(self, issuer: str, stmt: ast.RevokeStatement) -> ResultSet:
        if not self.privileges.is_owner(issuer):
            raise PermissionDenied(f"user {issuer!r} may not REVOKE privileges")
        self._apply_privilege_change(self._privilege_record("revoke", stmt))
        return ResultSet(status="REVOKE")

    @staticmethod
    def _privilege_record(
        op: str, stmt: "ast.GrantStatement | ast.RevokeStatement"
    ) -> dict[str, Any]:
        return {
            "op": op,
            "grantee": stmt.grantee,
            "actions": list(stmt.actions),
            "objects": list(stmt.objects),
            "columns": list(stmt.columns) if stmt.columns else None,
        }

    def _apply_privilege_change(self, record: dict[str, Any]) -> None:
        """Apply one grant / revoke / create_user record and append it to
        the WAL. These bypass the transaction manager (they are not
        undo-logged), so this is their whole write path — and one ordering
        point: the in-memory mutation and the WAL append must land in the
        same order for every concurrent change, or recovery replays a
        different privilege state than the live database had. Safe
        against the checkpoint's opposite-order acquisition (commit
        mutex, then privileges.mutex in the dump) because callers run
        inside the statement-admission window the checkpoint quiesces
        first."""
        with self.privileges.mutex:
            changes.apply(self, record)
            if self.engine.durable:
                self.engine.append_commit([record])

    # ------------------------------------------------------------- storage

    def heap(self, table: str) -> HeapTable:
        return self.heaps[table.lower()]

    # ----------------------------------------------------------- inspection

    def table_row_count(self, table: str) -> int:
        return len(self.heap(table))

    def snapshot(self) -> dict[str, list[dict]]:
        """Deep copy of all table contents, keyed by table name (tests)."""
        return {
            name: [row for _, row in heap.rows()]
            for name, heap in sorted(self.heaps.items())
        }
