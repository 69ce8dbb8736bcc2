"""AST node definitions for the minidb SQL dialect.

Every statement and expression form the parser can produce is a
``frozen=True`` dataclass here (the ``ast-frozen`` staticcheck rule keeps it
so). :func:`repro.minidb.parser.parse` hands the *same* statement object to
every caller that passes the same text — the verifier, then the session
that executes it, possibly on two threads at once — so nobody may change a
node: the parser collects a node's parts and constructs it once, and
whoever needs a variant builds a new node. The list-valued fields are part
of that contract (``tests/minidb/test_parse_cache.py`` deep-compares
statements before and after execution).

Nodes are deliberately dumb data carriers; evaluation lives in
:mod:`repro.minidb.expressions` and :mod:`repro.minidb.executor`, and
static analysis (used by BridgeScope's object-level verification) lives in
:mod:`repro.minidb.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

# --------------------------------------------------------------------------
# expressions
# --------------------------------------------------------------------------


class Expr:
    """Base class for all expression nodes."""


@dataclass(frozen=True)
class Literal(Expr):
    value: Any  # int | float | str | bool | None


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    table: str | None = None  # qualifier as written, e.g. "t1" in t1.x

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``t.*`` in a select list or COUNT(*)."""

    table: str | None = None


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # +,-,*,/,%,=,<>,<,<=,>,>=,AND,OR,||
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # -, +, NOT
    operand: Expr


@dataclass(frozen=True)
class FunctionCall(Expr):
    name: str  # upper-cased
    args: list[Expr]
    distinct: bool = False  # COUNT(DISTINCT x)


@dataclass(frozen=True)
class CaseExpr(Expr):
    operand: Expr | None  # CASE x WHEN ... vs searched CASE
    whens: list[tuple[Expr, Expr]]
    default: Expr | None


@dataclass(frozen=True)
class InExpr(Expr):
    operand: Expr
    candidates: "list[Expr] | SelectStatement"
    negated: bool = False


@dataclass(frozen=True)
class BetweenExpr(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class LikeExpr(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False
    case_insensitive: bool = False  # ILIKE


@dataclass(frozen=True)
class IsNullExpr(Expr):
    operand: Expr
    negated: bool = False  # IS NOT NULL


@dataclass(frozen=True)
class ExistsExpr(Expr):
    subquery: "SelectStatement"
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    subquery: "SelectStatement"


@dataclass(frozen=True)
class CastExpr(Expr):
    operand: Expr
    target_type: str


# --------------------------------------------------------------------------
# SELECT machinery
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    """A table or view in FROM, possibly aliased."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class SubqueryRef:
    """A derived table: ``(SELECT ...) AS alias``."""

    subquery: "SelectStatement"
    alias: str


@dataclass(frozen=True)
class Join:
    kind: str  # INNER | LEFT | RIGHT | CROSS
    source: "TableRef | SubqueryRef"
    condition: Expr | None  # None for CROSS


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class SelectStatement:
    items: list[SelectItem]
    from_sources: list["TableRef | SubqueryRef"] = field(default_factory=list)
    joins: list[Join] = field(default_factory=list)
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False
    set_op: Optional[tuple[str, "SelectStatement"]] = None  # ("UNION"|"UNION ALL"|..., rhs)


# --------------------------------------------------------------------------
# DML
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class InsertStatement:
    table: str
    columns: list[str] | None  # None = declared order
    rows: list[list[Expr]] | None  # VALUES form
    select: SelectStatement | None = None  # INSERT ... SELECT form


@dataclass(frozen=True)
class UpdateStatement:
    table: str
    assignments: list[tuple[str, Expr]]
    where: Expr | None = None


@dataclass(frozen=True)
class DeleteStatement:
    table: str
    where: Expr | None = None


# --------------------------------------------------------------------------
# DDL
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnDef:
    name: str
    declared_type: str
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False
    default: Expr | None = None
    check: Expr | None = None
    references: tuple[str, str] | None = None  # (table, column)


@dataclass(frozen=True)
class ForeignKeyDef:
    columns: list[str]
    ref_table: str
    ref_columns: list[str]


@dataclass(frozen=True)
class CreateTableStatement:
    table: str
    columns: list[ColumnDef]
    primary_key: list[str] = field(default_factory=list)
    foreign_keys: list[ForeignKeyDef] = field(default_factory=list)
    uniques: list[list[str]] = field(default_factory=list)
    checks: list[Expr] = field(default_factory=list)
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropTableStatement:
    tables: list[str]
    if_exists: bool = False
    cascade: bool = False


@dataclass(frozen=True)
class AlterTableStatement:
    table: str
    action: str  # ADD_COLUMN | DROP_COLUMN | RENAME_COLUMN | RENAME_TABLE
    column: ColumnDef | None = None
    old_name: str | None = None
    new_name: str | None = None


@dataclass(frozen=True)
class CreateIndexStatement:
    name: str
    table: str
    columns: list[str]
    unique: bool = False
    if_not_exists: bool = False
    using: str | None = None  # "BTREE" | "HASH" | None (defaults to hash)


@dataclass(frozen=True)
class DropIndexStatement:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class CreateViewStatement:
    name: str
    select: SelectStatement
    or_replace: bool = False


@dataclass(frozen=True)
class DropViewStatement:
    names: list[str]
    if_exists: bool = False


# --------------------------------------------------------------------------
# transactions & privileges
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplainStatement:
    select: SelectStatement
    #: EXPLAIN ANALYZE: execute the statement and annotate the plan lines
    #: with actual row counts and per-node timings
    analyze: bool = False


@dataclass(frozen=True)
class AnalyzeStatement:
    """``ANALYZE [table]`` — collect planner statistics (None = all tables)."""

    table: str | None = None


@dataclass(frozen=True)
class BeginStatement:
    pass


@dataclass(frozen=True)
class CommitStatement:
    pass


@dataclass(frozen=True)
class RollbackStatement:
    savepoint: str | None = None  # ROLLBACK TO SAVEPOINT x


@dataclass(frozen=True)
class SavepointStatement:
    name: str


@dataclass(frozen=True)
class ReleaseSavepointStatement:
    name: str


@dataclass(frozen=True)
class GrantStatement:
    actions: list[str]  # SELECT/INSERT/... or ["ALL"]
    columns: list[str] | None  # column-level grant, None = whole object
    objects: list[str]
    grantee: str


@dataclass(frozen=True)
class RevokeStatement:
    actions: list[str]
    columns: list[str] | None
    objects: list[str]
    grantee: str


Statement = (
    SelectStatement
    | InsertStatement
    | UpdateStatement
    | DeleteStatement
    | CreateTableStatement
    | DropTableStatement
    | AlterTableStatement
    | CreateIndexStatement
    | DropIndexStatement
    | CreateViewStatement
    | DropViewStatement
    | AnalyzeStatement
    | BeginStatement
    | CommitStatement
    | RollbackStatement
    | SavepointStatement
    | ReleaseSavepointStatement
    | GrantStatement
    | RevokeStatement
)
