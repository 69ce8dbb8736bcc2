"""System catalog: table/view/index metadata and constraint definitions.

The catalog is the single source of truth the rest of the engine (and
BridgeScope's context-retrieval tools) reads schema information from. Its
rendering helpers intentionally produce *stable, deterministic* text because
token-count experiments depend on reproducible schema strings.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any

from . import ast_nodes as ast
from .errors import DuplicateObjectError, UnknownColumnError, UnknownTableError
from .sqlgen import expr_to_sql
from .types import ColumnType


def _renamed(names: tuple[str, ...], old: str, new: str) -> tuple[str, ...]:
    lowered = old.lower()
    return tuple(new if name.lower() == lowered else name for name in names)


@dataclass
class Column:
    """Resolved column metadata."""

    name: str
    ctype: ColumnType
    not_null: bool = False
    default: Any = None
    has_default: bool = False

    def describe(self) -> str:
        parts = [f"{self.name} {self.ctype}"]
        if self.not_null:
            parts.append("NOT NULL")
        if self.has_default:
            parts.append(f"DEFAULT {self.default!r}")
        return " ".join(parts)


@dataclass
class ForeignKey:
    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]

    def describe(self) -> str:
        return (
            f"FOREIGN KEY ({', '.join(self.columns)}) REFERENCES "
            f"{self.ref_table}({', '.join(self.ref_columns)})"
        )


@dataclass
class TableSchema:
    """Complete schema of one table."""

    name: str
    columns: list[Column]
    primary_key: tuple[str, ...] = ()
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    uniques: list[tuple[str, ...]] = field(default_factory=list)
    checks: list[ast.Expr] = field(default_factory=list)
    check_sources: list[str] = field(default_factory=list)

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        lowered = name.lower()
        for col in self.columns:
            if col.name.lower() == lowered:
                return col
        raise UnknownColumnError(
            f"column {name!r} of table {self.name!r} does not exist"
        )

    def has_column(self, name: str) -> bool:
        lowered = name.lower()
        return any(c.name.lower() == lowered for c in self.columns)

    def rename_column(self, old: str, new: str) -> None:
        """Rename a column together with every constraint of this table
        that names it: primary key, uniques, CHECK expressions and their
        sources, and the table's own FK columns. Foreign keys *of other
        tables* that reference the column are rewritten by
        :meth:`Catalog.rename_column`, the entry point callers use."""
        self.column(old).name = new
        self.primary_key = _renamed(self.primary_key, old, new)
        self.uniques = [_renamed(unique, old, new) for unique in self.uniques]
        self.checks = [ast.with_column_renamed(check, old, new) for check in self.checks]
        self.check_sources = [expr_to_sql(check) for check in self.checks]
        for fk in self.foreign_keys:
            fk.columns = _renamed(fk.columns, old, new)

    def render_create(self) -> str:
        """Render as a normalized CREATE TABLE statement (LLM-readable)."""
        lines = [f"CREATE TABLE {self.name} ("]
        body: list[str] = [f"    {col.describe()}" for col in self.columns]
        if self.primary_key:
            body.append(f"    PRIMARY KEY ({', '.join(self.primary_key)})")
        for unique in self.uniques:
            body.append(f"    UNIQUE ({', '.join(unique)})")
        for fk in self.foreign_keys:
            body.append(f"    {fk.describe()}")
        for source in self.check_sources:
            body.append(f"    CHECK ({source})")
        lines.append(",\n".join(body))
        lines.append(");")
        return "\n".join(lines)


@dataclass
class IndexSchema:
    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False
    kind: str = "hash"  # "hash" | "btree" (CREATE INDEX ... USING <kind>)

    def describe(self) -> str:
        prefix = "UNIQUE INDEX" if self.unique else "INDEX"
        using = " USING BTREE" if self.kind == "btree" else ""
        return (
            f"{prefix} {self.name} ON "
            f"{self.table}{using}({', '.join(self.columns)})"
        )


@dataclass
class ViewSchema:
    name: str
    select: ast.SelectStatement
    source_sql: str

    def describe(self) -> str:
        return f"CREATE VIEW {self.name} AS {self.source_sql};"


#: catalog versions come from one process-wide sequence, so no two catalogs
#: ever share one and a cache keyed by version needs no catalog identity
_VERSIONS = itertools.count(1)


class Catalog:
    """Registry of all named objects in a database."""

    def __init__(self):
        #: a new number after every change to the tables, columns, views or
        #: indexes (statistics excepted): an analysis cached under an older
        #: version is not served again (``parser.shared_analysis``)
        self.version = next(_VERSIONS)
        self.tables: dict[str, TableSchema] = {}
        self.views: dict[str, ViewSchema] = {}
        self.indexes: dict[str, IndexSchema] = {}
        #: ANALYZE products by lower table name (statistics.TableStatistics);
        #: dropped with their table, renamed with it, persisted in snapshots
        self.statistics: dict[str, Any] = {}
        #: index names are a database-wide namespace, but concurrent
        #: CREATE INDEX statements only hold X locks on their (possibly
        #: different) tables — the name check-then-set must be atomic on
        #: its own
        self._index_name_mutex = threading.Lock()

    def changed(self) -> None:
        """Give the catalog a new version. Called *after* each change is
        complete: an analysis that read the old version and saw part of the
        change is stored under the old version, which nobody asks for again."""
        self.version = next(_VERSIONS)

    # ------------------------------------------------------------- lookups

    def _key(self, name: str) -> str:
        return name.lower()

    def has_table(self, name: str) -> bool:
        return self._key(name) in self.tables

    def has_view(self, name: str) -> bool:
        return self._key(name) in self.views

    def has_object(self, name: str) -> bool:
        key = self._key(name)
        return key in self.tables or key in self.views

    def table(self, name: str) -> TableSchema:
        try:
            return self.tables[self._key(name)]
        except KeyError:
            raise UnknownTableError(f"relation {name!r} does not exist") from None

    def view(self, name: str) -> ViewSchema:
        try:
            return self.views[self._key(name)]
        except KeyError:
            raise UnknownTableError(f"view {name!r} does not exist") from None

    def index(self, name: str) -> IndexSchema:
        try:
            return self.indexes[self._key(name)]
        except KeyError:
            raise UnknownTableError(f"index {name!r} does not exist") from None

    def object_names(self) -> list[str]:
        """All top-level object names (tables + views), sorted."""
        names = [t.name for t in self.tables.values()]
        names.extend(v.name for v in self.views.values())
        return sorted(names)

    def indexes_on(self, table: str) -> list[IndexSchema]:
        key = self._key(table)
        return sorted(
            (ix for ix in self.indexes.values() if self._key(ix.table) == key),
            key=lambda ix: ix.name,
        )

    def referencing_tables(self, table: str) -> list[str]:
        """Names of tables holding a FK that references ``table``."""
        key = self._key(table)
        result = []
        for schema in self.tables.values():
            if any(self._key(fk.ref_table) == key for fk in schema.foreign_keys):
                result.append(schema.name)
        return sorted(result)

    # ----------------------------------------------------------- mutations

    def add_table(self, schema: TableSchema) -> None:
        if self.has_object(schema.name):
            raise DuplicateObjectError(f"relation {schema.name!r} already exists")
        self.tables[self._key(schema.name)] = schema
        self.changed()

    def remove_table(self, name: str) -> TableSchema:
        self.statistics.pop(self._key(name), None)
        schema = self.tables.pop(self._key(name))
        self.changed()
        return schema

    def add_view(self, schema: ViewSchema, replace: bool = False) -> None:
        key = self._key(schema.name)
        if not replace and self.has_object(schema.name):
            raise DuplicateObjectError(f"relation {schema.name!r} already exists")
        if self._key(schema.name) in self.tables:
            raise DuplicateObjectError(
                f"a table named {schema.name!r} already exists"
            )
        self.views[key] = schema
        self.changed()

    def remove_view(self, name: str) -> ViewSchema:
        view = self.views.pop(self._key(name))
        self.changed()
        return view

    def add_index(self, schema: IndexSchema) -> None:
        with self._index_name_mutex:
            if self._key(schema.name) in self.indexes:
                raise DuplicateObjectError(
                    f"index {schema.name!r} already exists"
                )
            self.indexes[self._key(schema.name)] = schema
            self.changed()

    def remove_index(self, name: str) -> IndexSchema:
        index = self.indexes.pop(self._key(name))
        self.changed()
        return index

    def rename_column(self, table: str, old: str, new: str) -> None:
        """Rename ``table.old`` to ``new`` in the table's schema, in its
        index entries, and in the ``ref_columns`` of every foreign key that
        references it — a constraint left on the old name reads NULL and
        silently passes."""
        self.table(table).rename_column(old, new)
        for index in self.indexes_on(table):
            index.columns = _renamed(index.columns, old, new)
        key = self._key(table)
        for schema in self.tables.values():
            for fk in schema.foreign_keys:
                if self._key(fk.ref_table) == key:
                    fk.ref_columns = _renamed(fk.ref_columns, old, new)
        self.changed()

    def rename_table(self, old: str, new: str) -> None:
        """Rename table ``old`` to ``new`` everywhere the catalog names
        it: its schema, statistics and index entries, and the
        ``ref_table`` of every foreign key that references it — a
        constraint left on the old name fails every child INSERT and
        stops guarding the parent's rows."""
        if self.has_object(new):
            raise DuplicateObjectError(f"relation {new!r} already exists")
        key = self._key(old)
        stats = self.statistics.get(key)
        schema = self.remove_table(old)
        schema.name = new
        self.add_table(schema)
        if stats is not None:
            stats.table = new
            self.statistics[self._key(new)] = stats
        for index in self.indexes.values():
            if self._key(index.table) == key:
                index.table = new
        for other in self.tables.values():
            for fk in other.foreign_keys:
                if self._key(fk.ref_table) == key:
                    fk.ref_table = new
        self.changed()
