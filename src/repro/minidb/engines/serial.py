"""Structural (de)serialization between catalog objects and JSON.

The durable engine persists schema metadata *structurally* — plain JSON
for everything that is plain data — and leans on the SQL round trip only
where an AST is unavoidable: CHECK constraints travel as their rendered
SQL source (``TableSchema.check_sources``) and view definitions as
:func:`repro.minidb.sqlgen.select_to_sql` text, both re-parsed on load.
Column defaults are stored as evaluated values (the executor evaluates
DEFAULT expressions at DDL time), so they are always JSON-safe scalars.
"""

from __future__ import annotations

from typing import Any

from ..ast_nodes import Expr, SelectStatement
from ..catalog import Column, ForeignKey, IndexSchema, TableSchema, ViewSchema
from ..errors import PersistenceError
from ..parser import parse
from ..privileges import Grant, PrivilegeManager
from ..statistics import TableStatistics
from ..storage import HashIndex, SortedIndex
from ..types import ColumnType


# ---------------------------------------------------------------- SQL bridge


def parse_expression(source: str) -> Expr:
    """Re-parse one rendered expression (CHECK source) back into an AST."""
    stmt = parse(f"SELECT ({source})")
    if not isinstance(stmt, SelectStatement) or len(stmt.items) != 1:
        raise PersistenceError(f"cannot restore expression from {source!r}")
    return stmt.items[0].expr


def parse_view_select(source: str) -> SelectStatement:
    """Re-parse a persisted view definition back into a SELECT AST."""
    stmt = parse(source)
    if not isinstance(stmt, SelectStatement):
        raise PersistenceError(f"cannot restore view definition from {source!r}")
    return stmt


# ------------------------------------------------------------------- schemas


def dump_column(column: Column) -> dict[str, Any]:
    return {
        "name": column.name,
        "type": column.ctype.name,
        "length": column.ctype.length,
        "not_null": column.not_null,
        "default": column.default,
        "has_default": column.has_default,
    }


def load_column(data: dict[str, Any]) -> Column:
    return Column(
        name=data["name"],
        ctype=ColumnType(data["type"], data.get("length")),
        not_null=data["not_null"],
        default=data["default"],
        has_default=data["has_default"],
    )


def dump_table_schema(schema: TableSchema) -> dict[str, Any]:
    return {
        "name": schema.name,
        "columns": [dump_column(c) for c in schema.columns],
        "primary_key": list(schema.primary_key),
        "foreign_keys": [
            {
                "columns": list(fk.columns),
                "ref_table": fk.ref_table,
                "ref_columns": list(fk.ref_columns),
            }
            for fk in schema.foreign_keys
        ],
        "uniques": [list(u) for u in schema.uniques],
        "checks": list(schema.check_sources),
    }


def load_table_schema(data: dict[str, Any]) -> TableSchema:
    sources = list(data["checks"])
    return TableSchema(
        name=data["name"],
        columns=[load_column(c) for c in data["columns"]],
        primary_key=tuple(data["primary_key"]),
        foreign_keys=[
            ForeignKey(
                tuple(fk["columns"]), fk["ref_table"], tuple(fk["ref_columns"])
            )
            for fk in data["foreign_keys"]
        ],
        uniques=[tuple(u) for u in data["uniques"]],
        checks=[parse_expression(source) for source in sources],
        check_sources=sources,
    )


# ------------------------------------------------------------------- indexes


def dump_index(index: "HashIndex | SortedIndex") -> dict[str, Any]:
    """Definition only — buckets/arrays are rebuilt from rows on load."""
    return {
        "name": index.name,
        "columns": list(index.columns),
        "unique": index.unique,
        "kind": index.kind,
    }


def _stored_names(data: dict[str, Any], table: TableSchema) -> tuple[str, ...]:
    """The index's columns as ``table`` stores them: rows are keyed by the
    stored name, so an index on ``(ABC)`` over column ``abc`` must read
    ``abc`` — or it keys every row NULL and covers nothing."""
    return tuple(table.column(name).name for name in data["columns"])


def load_index(data: dict[str, Any], table: TableSchema) -> "HashIndex | SortedIndex":
    # pre-PR-5 snapshots and WAL records carry no "kind": they are hash
    cls = SortedIndex if data.get("kind") == "btree" else HashIndex
    return cls(data["name"], _stored_names(data, table), data["unique"])


def dump_index_schema(schema: IndexSchema) -> dict[str, Any]:
    return {
        "name": schema.name,
        "table": schema.table,
        "columns": list(schema.columns),
        "unique": schema.unique,
        "kind": schema.kind,
    }


def load_index_schema(data: dict[str, Any], table: TableSchema) -> IndexSchema:
    return IndexSchema(
        data["name"],
        table.name,
        _stored_names(data, table),
        data["unique"],
        kind=data.get("kind", "hash"),
    )


# ---------------------------------------------------------------- statistics


def dump_statistics(stats: TableStatistics) -> dict[str, Any]:
    return stats.to_payload()


def load_statistics(data: dict[str, Any]) -> TableStatistics:
    return TableStatistics.from_payload(data)


# --------------------------------------------------------------------- views


def dump_view(view: ViewSchema) -> dict[str, Any]:
    return {"name": view.name, "sql": view.source_sql}


def load_view(data: dict[str, Any]) -> ViewSchema:
    return ViewSchema(
        data["name"], parse_view_select(data["sql"]), source_sql=data["sql"]
    )


# ---------------------------------------------------------------- privileges


def dump_privileges(manager: PrivilegeManager) -> dict[str, Any]:
    # hold the manager's (re-entrant) mutex across the whole dump: a
    # concurrent GRANT/create_user mutating the user table mid-iteration
    # would tear the snapshot (or persist it half-applied)
    with manager.mutex:
        return {
            "owner": manager.owner,
            "users": {
                user: [
                    [
                        grant.action,
                        grant.obj,
                        sorted(grant.columns)
                        if grant.columns is not None
                        else None,
                    ]
                    for grant in manager.grants_of(user)
                ]
                for user in manager.users()
            },
        }


def load_privileges(data: dict[str, Any]) -> PrivilegeManager:
    manager = PrivilegeManager(data["owner"])
    for user, grants in data["users"].items():
        manager.set_grants(
            user,
            [
                Grant(
                    action,
                    obj,
                    frozenset(columns) if columns is not None else None,
                )
                for action, obj, columns in grants
            ],
        )
    return manager
