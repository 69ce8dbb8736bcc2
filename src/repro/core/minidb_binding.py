"""Reference :class:`DatabaseBinding` implementation over minidb."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from ..minidb import Database, Session, analyze, parse
from ..minidb.errors import DeadlockError, LockTimeoutError
from .interfaces import AccessFootprint, DatabaseBinding, ObjectInfo, SqlOutcome


class MinidbBinding(DatabaseBinding):
    """Binds one minidb session (one user) to the BridgeScope interface."""

    def __init__(self, session: Session):
        self.session = session

    @classmethod
    def for_user(cls, db: Database, user: str) -> "MinidbBinding":
        return cls(db.connect(user))

    @classmethod
    def open(cls, path: str, user: str = "admin", **open_kwargs: Any) -> "MinidbBinding":
        """Bind to a durable database directory (create or recover).

        The database is opened through :meth:`repro.minidb.Database.open`,
        so an agent session bound this way survives restarts: heaps,
        indexes, privileges, and persisted retrieval catalogs all come
        back from disk.
        """
        return cls.for_user(Database.open(path, **open_kwargs), user)

    # ----------------------------------------------------------- execution

    def run_sql(self, sql: str) -> SqlOutcome:
        result = self.session.execute(sql)
        return SqlOutcome(
            columns=result.columns,
            rows=result.rows,
            rowcount=result.rowcount,
            status=result.status,
        )

    def analyze_sql(self, sql: str) -> AccessFootprint:
        stmt = parse(sql)
        analysis = analyze(stmt, self.session.db.catalog)
        return AccessFootprint(
            action=analysis.action,
            accesses=[
                (a.action, a.obj, a.column_set()) for a in analysis.accesses
            ],
            is_transaction_control=analysis.is_transaction_control,
            is_ddl=analysis.is_ddl,
        )

    # ------------------------------------------------------------- catalog

    def list_objects(self) -> list[str]:
        return self.session.db.catalog.object_names()

    def object_info(self, name: str) -> ObjectInfo:
        catalog = self.session.db.catalog
        if catalog.has_view(name):
            view = catalog.view(name)
            return ObjectInfo(
                name=view.name,
                kind="view",
                ddl=view.describe(),
            )
        schema = catalog.table(name)
        return ObjectInfo(
            name=schema.name,
            kind="table",
            columns=[
                {
                    "name": col.name,
                    "type": str(col.ctype),
                    "not_null": col.not_null,
                    "default": col.default if col.has_default else None,
                }
                for col in schema.columns
            ],
            primary_key=list(schema.primary_key),
            foreign_keys=[fk.describe() for fk in schema.foreign_keys],
            indexes=[ix.describe() for ix in catalog.indexes_on(schema.name)],
            ddl=schema.render_create(),
        )

    @contextmanager
    def _shared_scan(self, table_name: str) -> Iterator[None]:
        """Hold an S lock on ``table_name`` for a heap scan outside the
        executor (value-retrieval tool calls).

        Without it, a concurrent writer's UPDATE mutates row dicts
        mid-scan and uncommitted rows from open transactions leak into
        the catalog (dirty reads) — breaking the 2PL serializability the
        service layer promises. Inside an explicit transaction the lock
        joins the transaction's lock set (strict 2PL, released at
        commit/rollback); in autocommit it is released when the scan
        ends. Deadlock victims and lock-wait timeouts abort the whole
        transaction (both are retryable), matching
        :meth:`repro.minidb.Session.execute_statement`. No-op on
        databases without a lock manager.
        """
        session = self.session
        try:
            session.lock_table(table_name, "S")
        except (DeadlockError, LockTimeoutError):
            if session.tx.in_transaction:
                session.tx.rollback()
            session.release_locks()
            raise
        try:
            yield
        finally:
            if not session.in_transaction:
                session.release_locks()

    def distinct_values(self, table: str, column: str, limit: int) -> list[Any]:
        schema = self.session.db.catalog.table(table)  # validate pre-lock
        with self._shared_scan(schema.name):
            # re-resolve after the lock grant: a scan that blocked behind
            # DROP + CREATE must see the recreated schema (an old column
            # name would silently yield [] instead of unknown-column)
            schema = self.session.db.catalog.table(table)
            column_name = schema.column(column).name
            heap = self.session.db.heap(schema.name)
            seen: list[Any] = []
            seen_set: set[Any] = set()
            for value in heap.column_values(column_name):
                if value is None or value in seen_set:
                    continue
                seen_set.add(value)
                seen.append(value)
                if len(seen) >= limit:
                    break
        return seen

    def retrieve_values(
        self,
        table: str,
        column: str,
        key: str,
        k: int,
        limit: int,
        synonyms: Any = None,
    ) -> list[tuple[Any, float]]:
        """Indexed exemplar retrieval via a cached per-column value catalog.

        Catalogs live on the shared :class:`~repro.minidb.Database` (all
        sessions reuse them) and are fingerprinted by the owning heap's
        ``(uid, version)`` change counter, so after any
        INSERT/UPDATE/DELETE, DDL, or ROLLBACK the next call re-scans the
        column and revises the cached catalog against it (kept when the
        distinct list is unchanged, rebuilt only when it must be). On a
        durable database they are also persisted into the engine's
        ``catalogs/`` sidecar directory, so a reopened database serves
        unchanged columns without rebuilding anything.
        """
        from ..retrieval import CatalogCache, CatalogStore

        db = self.session.db
        schema = db.catalog.table(table)  # validate pre-lock

        def make_cache() -> CatalogCache:
            catalog_dir = db.engine.catalog_dir
            # share the engine's I/O seam so fault injection (and the
            # fs-seam rule) covers sidecar persistence too
            store = (
                CatalogStore(catalog_dir, filesystem=db.engine.filesystem)
                if catalog_dir
                else None
            )
            return CatalogCache(store=store)

        # guarded lazy init: concurrent first callers must share one cache
        cache = db.ensure_retrieval_cache(make_cache)
        # hold the S lock across schema/heap resolution, fingerprint read,
        # *and* build: resolving before the grant would let a call that
        # blocked behind DROP + CREATE fingerprint (and serve) the dropped
        # heap's cached catalog; resolving inside makes the cached entry
        # reflect exactly the rows the fingerprint describes
        # (distinct_values re-acquires reentrantly inside the builder)
        with self._shared_scan(schema.name):
            schema = db.catalog.table(table)
            column_name = schema.column(column).name
            heap = db.heap(schema.name)
            catalog = cache.lookup(
                (schema.name, column_name, limit),
                (heap.uid, heap.version),
                lambda: self.distinct_values(table, column, limit),
            )
        return catalog.top_k(key, k, synonyms)

    # ---------------------------------------------------------- privileges

    def user_actions_on(self, obj: str) -> set[str]:
        return self.session.db.privileges.actions_on(self.session.user, obj)

    def user_column_restrictions(self, action: str, obj: str) -> frozenset[str] | None:
        return self.session.db.privileges.column_restrictions(
            self.session.user, action, obj
        )

    def all_actions(self) -> tuple[str, ...]:
        from ..minidb.privileges import ACTIONS

        return ACTIONS

    # -------------------------------------------------------- transactions

    def in_transaction(self) -> bool:
        return self.session.in_transaction

    @property
    def user(self) -> str:
        return self.session.user
