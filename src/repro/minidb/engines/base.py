"""The storage-engine interface every minidb backend implements.

An engine owns three concerns, all invoked from above by the database
facade and the transaction manager:

1. **Recovery** — :meth:`StorageEngine.attach` is called once at database
   construction and may populate the (still empty) catalog, heaps, and
   privilege manager from persistent state.
2. **The commit boundary** — :meth:`StorageEngine.append_commit` receives
   the redo records of exactly one committed transaction (explicit or
   autocommit). Rolled-back transactions never reach the engine; the
   transaction manager discards their redo log locally.
3. **Checkpointing** — :meth:`StorageEngine.checkpoint` compacts the
   engine's log into a snapshot; :meth:`StorageEngine.close` releases
   resources. Both are no-ops for non-durable engines.

Engines must not assume they run inside an executor statement: recovery
manipulates catalog and heap objects directly (no sessions exist yet),
and ``append_commit`` runs after heap state is already final.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database

#: one mutation, JSON-able (schema: :mod:`repro.minidb.changes`)
Record = dict[str, Any]


class StorageEngine:
    """Base class: an engine with no persistence at all."""

    #: whether commits must be redo-logged and routed through the engine
    durable = False

    def __init__(self) -> None:
        self.db: "Database | None" = None

    # ------------------------------------------------------------ lifecycle

    def attach(self, db: "Database") -> None:
        """Bind to ``db`` and recover any persistent state into it."""
        self.db = db

    def close(self) -> None:
        """Flush and release resources; the engine is unusable afterwards."""

    # -------------------------------------------------------------- commits

    def append_commit(self, records: list[Record]) -> None:
        """Make one committed transaction's mutations durable."""

    def checkpoint(self) -> None:
        """Compact the durable representation (snapshot + log truncation)."""

    # ------------------------------------------------------------ side data

    @property
    def panicked(self) -> bool:
        """Whether the engine is in fail-stop panic mode (durable engines
        only; see :class:`~repro.minidb.errors.StorageFailedError`). The
        base engine has no storage to fail."""
        return False

    @property
    def filesystem(self) -> Any | None:
        """The :class:`repro.faults.Filesystem` seam this engine performs
        file I/O through, or ``None`` for engines that do none. Sidecar
        writers (persisted retrieval catalogs) must use the same seam so
        fault injection covers them too. Typed ``Any`` so minidb never
        imports the faults package at class-definition time."""
        return None

    @property
    def catalog_dir(self) -> str | None:
        """Directory for derived-cache sidecar files (persisted retrieval
        catalogs), or ``None`` when the engine has no durable home for
        them. Kept as a plain path so minidb never imports the retrieval
        layer."""
        return None

    def describe(self) -> str:
        return type(self).__name__
