"""The change log: every physical mutation of a database is one record,
and :func:`apply` is the one function that performs it.

A statement validates (locks, constraints, foreign keys), builds the
record and hands it to :meth:`TransactionManager.apply
<repro.minidb.transactions.TransactionManager.apply>`, which calls
:func:`apply`, keeps the returned undo closure for ROLLBACK and — on a
durable engine — the record itself for the WAL. Recovery feeds the same
records, read back from the WAL, to the same function and drops the undo.
The running database and the recovered one are therefore built by the
same code, and a field the codec forgets shows up in ordinary tests, not
only after a crash.

WAL record schema
-----------------

Every record is one JSON object on its own ``\\n``-terminated line with a
``seq`` field — a strictly increasing sequence number spanning snapshots
— plus an ``op`` and op-specific fields. The last record of each
committed transaction's batch additionally carries ``commit: true``
(see :mod:`repro.minidb.engines.durable` for file layout and recovery).
Row and DDL records are stamped with the owning heap's post-mutation
``(uid, version)``, so recovery restores change counters (and therefore
retrieval-cache fingerprints) exactly:

=================  ========================================================
op                 fields
=================  ========================================================
``insert``         table, rid, row, uid, version
``update``         table, rid, row (new image, keys in heap column order:
                   after RENAME COLUMN the renamed column comes last, not
                   in schema order), uid, version
``delete``         table, rid, uid, version
``create_table``   table, schema (structural), indexes (definitions), uid,
                   version
``drop_table``     table
``add_column``     table, column (structural), fill (value applied to
                   existing rows), uid, version
``drop_column``    table, column, uid, version
``rename_column``  table, old, new, uid, version
``rename_table``   old, new
``create_index``   table, index (definition), uid, version
``drop_index``     table, index, uid, version
``create_view``    view, sql (select_to_sql round trip), or_replace
``drop_view``      view
``grant``          grantee, actions, objects, columns
``revoke``         grantee, actions, objects, columns
``create_user``    user
``analyze``        table, stats (computed statistics payload — replay
                   restores, never recomputes)
=================  ========================================================

**Stamp or adopt.** A record built by a statement arrives without ``uid``
/ ``version`` (and an ``insert`` with ``rid: None``): the op writes what
the mutation produced into it, in the positions above, and that is what
reaches the WAL. A record read from the WAL has them, and the heap adopts
them instead — rolled-back work moves the live counters without reaching
the WAL, so counting again at replay would not reproduce them. ``uid`` is
what must survive a restart: ANALYZE statistics are keyed on it
(:class:`~repro.minidb.statistics.TableStatistics` ignores statistics of
another uid). Nothing reads ``version`` across a restart any more (value
catalogs are rebuilt after a reopen); records keep it so the WAL format
does not change until a deliberate format revision drops it.

Privilege records (``grant`` / ``revoke`` / ``create_user``) are not
transactional: their ops return no undo, and the database applies and
appends them under one mutex (:meth:`Database.apply_grant
<repro.minidb.database.Database.apply_grant>`). Grants follow their
object, as in PostgreSQL: ``drop_table`` / ``drop_view`` drop the
object's grants, ``drop_column`` takes the column out of column grants,
and the renames move them — each op's undo puts them back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .engines.base import Record
from .engines.serial import (
    load_column,
    load_index,
    load_index_schema,
    load_statistics,
    load_table_schema,
    load_view,
)
from .errors import PersistenceError
from .storage import HeapTable, reserve_heap_uids

if TYPE_CHECKING:  # pragma: no cover
    from .database import Database

#: reverses one applied change
Undo = Callable[[], None]


def apply(db: "Database", record: Record) -> "Undo | None":
    """Perform ``record`` on ``db``; returns the closure that reverses it
    (``None`` for privilege records, which are not transactional)."""
    op = OPS.get(record["op"])
    if op is None:
        raise PersistenceError(f"unknown WAL op {record['op']!r}")
    return op(db, record)


def _stamp(heap: HeapTable, r: Record) -> None:
    """Stamp or adopt (module docstring), decided by the record."""
    if "version" in r:
        heap.version = r["version"]
    else:
        r["uid"] = heap.uid
        r["version"] = heap.version


# ------------------------------------------------------------------- rows


def _insert(db: "Database", r: Record) -> Undo:
    heap = db.heaps[r["table"]]
    rid = r["rid"]
    if rid is None:
        # indexes first, so a UniqueViolation leaves the heap untouched
        rid = r["rid"] = heap.insert(r["row"])
    else:
        heap.restore(rid, r["row"])
    _stamp(heap, r)
    return lambda: heap.delete(rid)


def _update(db: "Database", r: Record) -> Undo:
    heap = db.heaps[r["table"]]
    rid = r["rid"]
    previous = heap.update(rid, r["row"])
    _stamp(heap, r)
    return lambda: heap.update(rid, previous)


def _delete(db: "Database", r: Record) -> Undo:
    heap = db.heaps[r["table"]]
    rid = r["rid"]
    old = heap.delete(rid)
    _stamp(heap, r)
    return lambda: heap.restore(rid, old)


# ----------------------------------------------------------------- tables


def _detach_table(db: "Database", name: str) -> Undo:
    """Remove a table with its heap, index entries and statistics;
    returns the closure that puts all of them back."""
    catalog = db.catalog
    key = name.lower()
    stats = catalog.statistics.get(key)
    schema = catalog.remove_table(name)
    heap = db.heaps.pop(key)
    indexes = [catalog.remove_index(ix.name) for ix in catalog.indexes_on(name)]

    def reattach() -> None:
        catalog.add_table(schema)
        db.heaps[key] = heap
        for index in indexes:
            catalog.add_index(index)
        if stats is not None:
            catalog.statistics[key] = stats

    return reattach


def _create_table(db: "Database", r: Record) -> Undo:
    schema = load_table_schema(r["schema"])
    db.catalog.add_table(schema)
    heap = HeapTable(schema.name)
    for entry in r["indexes"]:
        heap.add_index(load_index(entry, schema))
    if "uid" in r:
        heap.uid = r["uid"]
        reserve_heap_uids(heap.uid)
    _stamp(heap, r)
    db.heaps[schema.name.lower()] = heap

    def undo() -> None:
        _detach_table(db, schema.name)

    return undo


def _drop_table(db: "Database", r: Record) -> Undo:
    reattach = _detach_table(db, r["table"])
    regrant = db.privileges.follow_object(r["table"], None)

    def undo() -> None:
        regrant()
        reattach()

    return undo


def _move_table(db: "Database", old: str, new: str) -> None:
    db.catalog.rename_table(old, new)
    db.heaps[new.lower()] = db.heaps.pop(old.lower())


def _rename_table(db: "Database", r: Record) -> Undo:
    old, new = r["old"], r["new"]
    _move_table(db, old, new)
    regrant = db.privileges.follow_object(old, new)

    def undo() -> None:
        regrant()
        _move_table(db, new, old)

    return undo


# ---------------------------------------------------------------- columns


def _add_column(db: "Database", r: Record) -> Undo:
    schema = db.catalog.table(r["table"])
    heap = db.heaps[r["table"].lower()]
    column = load_column(r["column"])
    schema.columns.append(column)
    db.catalog.changed()
    heap.add_column(column.name, r["fill"])
    _stamp(heap, r)

    def undo() -> None:
        schema.columns.remove(column)
        db.catalog.changed()
        heap.drop_column(column.name)

    return undo


def _drop_column(db: "Database", r: Record) -> Undo:
    schema = db.catalog.table(r["table"])
    heap = db.heaps[r["table"].lower()]
    column = schema.column(r["column"])
    position = schema.columns.index(column)
    del schema.columns[position]
    db.catalog.changed()
    values = heap.drop_column(column.name)
    _stamp(heap, r)
    regrant = db.privileges.follow_column(r["table"], column.name, None)

    def undo() -> None:
        regrant()
        schema.columns.insert(position, column)
        db.catalog.changed()
        heap.restore_column(column.name, values)

    return undo


def _rename_column(db: "Database", r: Record) -> Undo:
    table, old, new = r["table"], r["old"], r["new"]
    heap = db.heaps[table.lower()]
    db.catalog.rename_column(table, old, new)
    heap.rename_column(old, new)
    _stamp(heap, r)
    regrant = db.privileges.follow_column(table, old, new)

    def undo() -> None:
        regrant()
        heap.rename_column(new, old)
        db.catalog.rename_column(table, new, old)

    return undo


# ---------------------------------------------------------------- indexes


def _create_index(db: "Database", r: Record) -> Undo:
    entry = r["index"]
    name = entry["name"]
    catalog = db.catalog
    schema = catalog.table(r["table"])
    heap = db.heaps[r["table"].lower()]
    # the name check-then-set is atomic across tables; a loser raises
    # DuplicateObjectError with nothing changed
    catalog.add_index(load_index_schema(entry, schema))
    try:
        heap.add_index(load_index(entry, schema))
    except Exception:
        catalog.remove_index(name)  # the backfill raised: no entry stays
        raise
    _stamp(heap, r)

    def undo() -> None:
        catalog.remove_index(name)
        heap.drop_index(name)

    return undo


def _drop_index(db: "Database", r: Record) -> Undo:
    catalog = db.catalog
    index_schema = catalog.remove_index(r["index"])
    heap = db.heaps[r["table"].lower()]
    index = heap.drop_index(index_schema.name)
    _stamp(heap, r)

    def undo() -> None:
        catalog.add_index(index_schema)
        heap.attach_index(index)  # buckets intact

    return undo


# ------------------------------------------------------------------ views


def _create_view(db: "Database", r: Record) -> Undo:
    catalog = db.catalog
    view = load_view({"name": r["view"], "sql": r["sql"]})
    replace = r.get("or_replace", False)
    replaced = catalog.views.get(view.name.lower()) if replace else None
    catalog.add_view(view, replace=replace)

    def undo() -> None:
        catalog.remove_view(view.name)
        if replaced is not None:
            catalog.add_view(replaced)

    return undo


def _drop_view(db: "Database", r: Record) -> Undo:
    view = db.catalog.remove_view(r["view"])
    regrant = db.privileges.follow_object(r["view"], None)

    def undo() -> None:
        regrant()
        db.catalog.add_view(view)

    return undo


# ------------------------------------------------------------- statistics


def _analyze(db: "Database", r: Record) -> Undo:
    statistics = db.catalog.statistics
    key = r["table"]
    previous = statistics.get(key)
    # the record carries the *computed* statistics: a statement reads
    # them back through the codec, replay restores without rescanning
    statistics[key] = load_statistics(r["stats"])

    def undo() -> None:
        if previous is None:
            statistics.pop(key, None)
        else:
            statistics[key] = previous

    return undo


# ------------------------------------------------------------- privileges


def _grant_or_revoke(db: "Database", r: Record) -> None:
    change = db.privileges.grant if r["op"] == "grant" else db.privileges.revoke
    for obj in r["objects"]:
        for action in r["actions"]:
            change(r["grantee"], action, obj, r["columns"])


def _create_user(db: "Database", r: Record) -> None:
    db.privileges.create_user(r["user"])


#: op kind -> the function that applies it
OPS: "dict[str, Callable[[Database, Record], Undo | None]]" = {
    "insert": _insert,
    "update": _update,
    "delete": _delete,
    "create_table": _create_table,
    "drop_table": _drop_table,
    "add_column": _add_column,
    "drop_column": _drop_column,
    "rename_column": _rename_column,
    "rename_table": _rename_table,
    "create_index": _create_index,
    "drop_index": _drop_index,
    "create_view": _create_view,
    "drop_view": _drop_view,
    "grant": _grant_or_revoke,
    "revoke": _grant_or_revoke,
    "create_user": _create_user,
    "analyze": _analyze,
}
