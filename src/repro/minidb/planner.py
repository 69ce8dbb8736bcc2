"""Planning for minidb: one physical plan per statement.

:func:`plan_select` turns a SELECT block into a :class:`SelectPlan` — a
:class:`ScanPlan` per FROM/JOIN source, a :class:`JoinPlan` per fold, and
the set-operation arm as a child block. That value is built exactly once
per execution: the executor only *consumes* the nodes it is handed,
``EXPLAIN`` only *renders* them (:meth:`SelectPlan.lines`), and
``EXPLAIN ANALYZE`` / the tracer attach actuals to the same node objects.
Every planning decision is therefore taken in this module and nowhere
else (the ``planner-seam`` staticcheck rule enforces it):

* **Access paths** (:func:`plan_table_scan`, shared by SELECT sources and
  UPDATE/DELETE targets) — top-level AND-ed ``col = literal`` conjuncts
  probe a covering index; range conjuncts (``<, <=, >, >=``, ``BETWEEN``)
  over a ``USING BTREE`` sorted index — optionally behind an
  equality-bound column prefix — slice the index's sorted run; ``IN``
  lists / single-column OR-chains become index unions
  (:func:`choose_access_path` ranks the candidates, by cost after
  ``ANALYZE``). When a sorted index's order *is* the statement's ORDER BY
  the scan becomes an ``ordered`` path that skips the sort and stops after
  OFFSET+LIMIT survivors. Null-rejecting single-source conjuncts are
  pushed down into the scans of multi-source blocks so join inputs shrink
  before pairing. The full WHERE is always re-applied afterwards, so every
  path is a pure candidate-set reduction.

* **One pipeline** — access paths and join strategies are the whole plan:
  the executor runs every block through the same scan -> join -> filter ->
  group/project operators over column batches, so there is no execution
  mode to choose (or to print in EXPLAIN).

* **Join strategies** — :func:`plan_join` splits a join's ON condition (and,
  because the full WHERE clause is re-applied after all joins, any
  cross-source equality conjuncts of the WHERE clause) into hash-joinable
  equi-keys plus a residual predicate. Joins with at least one equi-key
  execute as hash joins; non-equi conditions fall back to nested loops;
  conditionless pairings remain cross products. Outer-join NULL extension is
  preserved: WHERE-derived keys are safe on nullable sides precisely because
  equality is null-rejecting and the WHERE clause filters the NULL-extended
  rows it would have rejected anyway. Keys resolve against each source's
  *output* columns, which are known statically for views and derived
  tables too (:meth:`SelectPlan.output_columns`).

Planning a block needs its base tables' schemas, which the caller supplies
through ``resolve_table``: the executor passes a lock-then-resolve
function (so a block is planned only after its S locks are granted, in
FROM-then-JOIN order with views and derived tables expanding in place,
then the set-operation arm), plain ``EXPLAIN`` passes the bare catalog
lookup and so takes no locks. Subqueries inside expressions are separate
blocks, planned when the evaluator first runs them.

**Error-surfacing contract.** Planning never changes *results*: a query
that evaluates without errors returns the same rows under every strategy.
Name-resolution errors (unknown or ambiguous columns) are likewise
strategy-independent — unqualified references are only used for keys,
filters, or index probes when provably unambiguous across the whole
statement. Data-dependent *evaluation* errors (e.g. comparing an ``INT``
column to a ``TEXT`` literal), however, follow standard SQL-optimizer
semantics: a predicate that planning proved unnecessary to evaluate (its
rows were already pruned by an index probe, range slice, pushed filter,
or join key — or never reached because an ordered scan's LIMIT early
exit stopped first) may never run, so such a query can return its rows —
or empty — where an unoptimized plan would raise. A range bound whose
type differs from the column's values is the sharpest instance: the
sorted index's total order places whole type classes outside the slice,
so ``v >= 'abc'`` over an INT column returns empty instead of raising
the per-row comparison error — exactly the rows the slice excluded are
the rows whose evaluation would have raised. The seed behaved the same
way on its index-probe path; the row-pruning optimizations here extend
that contract rather than break it. (The equivalence suites therefore
compare plans on type-consistent predicates, where results are
byte-identical.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..obs.views import SYSTEM_VIEW_COLUMNS, is_system_relation
from . import ast_nodes as ast
from .errors import ExecutionError, MiniDBError, UnknownTableError
from .functions import AGGREGATE_NAMES
from .sqlgen import expr_to_sql
from .storage import HashIndex, HeapTable, SortedIndex, ordering_key_element

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import TableSchema
    from .database import Database
    from .statistics import TableStatistics

#: comparison operators that can never be true when an operand is NULL;
#: only these may be pushed below an outer join's nullable side
NULL_REJECTING_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


@dataclass
class EqualityBinding:
    """One ``column = constant`` conjunct usable for index probing."""

    column: str  # lower-cased
    value: Any


@dataclass
class RangeBinding:
    """Combined range bounds on one column, harvested from WHERE conjuncts.

    Built from top-level AND-ed ``col < / <= / > / >= literal`` comparisons
    and non-negated ``col BETWEEN lo AND hi``; multiple conjuncts on the
    same column keep the tightest bound on each side. ``None`` means
    unbounded on that side.
    """

    column: str  # lower-cased
    low: Any = None
    high: Any = None
    incl_low: bool = True
    incl_high: bool = True

    @property
    def bounded_sides(self) -> int:
        return (self.low is not None) + (self.high is not None)

    def tighten_low(self, value: Any, inclusive: bool) -> None:
        if value is None:
            return
        if self.low is None:
            self.low, self.incl_low = value, inclusive
            return
        new, old = ordering_key_element(value), ordering_key_element(self.low)
        if new > old or (new == old and self.incl_low and not inclusive):
            self.low, self.incl_low = value, inclusive

    def tighten_high(self, value: Any, inclusive: bool) -> None:
        if value is None:
            return
        if self.high is None:
            self.high, self.incl_high = value, inclusive
            return
        new, old = ordering_key_element(value), ordering_key_element(self.high)
        if new < old or (new == old and self.incl_high and not inclusive):
            self.high, self.incl_high = value, inclusive

    def describe(self, column: str | None = None) -> str:
        name = column or self.column
        parts = []
        if self.low is not None:
            op = ">=" if self.incl_low else ">"
            parts.append(f"{name} {op} {expr_to_sql(ast.Literal(self.low))}")
        if self.high is not None:
            op = "<=" if self.incl_high else "<"
            parts.append(f"{name} {op} {expr_to_sql(ast.Literal(self.high))}")
        return " AND ".join(parts)


@dataclass
class UnionBinding:
    """A disjunctive candidate set over one column.

    Harvested from a top-level ``col IN (literal, ...)`` conjunct or an
    OR-chain whose every disjunct binds the *same* column (equalities,
    ordering comparisons, BETWEEN). ``points`` are deduplicated non-NULL
    equality values; ``ranges`` are the OR-ed range disjuncts. An index
    union scan probes each member and unions the rid sets — a pure
    candidate-set reduction, since the full WHERE is re-applied.
    """

    column: str  # lower-cased
    points: list = field(default_factory=list)
    ranges: list[RangeBinding] = field(default_factory=list)

    @property
    def members(self) -> int:
        return len(self.points) + len(self.ranges)

    def describe(self, column: str | None = None) -> str:
        name = column or self.column
        parts = []
        if self.points:
            rendered = ", ".join(
                expr_to_sql(ast.Literal(v)) for v in self.points
            )
            parts.append(f"{name} IN ({rendered})")
        for rng in self.ranges:
            text = rng.describe(name)
            parts.append(f"({text})" if " AND " in text else text)
        return " OR ".join(parts)


@dataclass
class AccessPath:
    """The chosen way to read one table."""

    table: str
    kind: str  # "seq" | "index" | "range" | "union" | "ordered"
    index_name: str | None = None
    key_columns: tuple[str, ...] = ()
    # range / ordered details: equality-bound leading values, then bounds
    # on the next index column
    prefix_values: tuple = ()
    range_column: str | None = None
    range: "RangeBinding | None" = None
    union: "UnionBinding | None" = None  # kind == "union"
    # kind == "ordered": the ORDER BY the index order stands in for
    order_columns: tuple[str, ...] = ()
    reverse: bool = False
    limit: int | None = None
    #: cost-model output (only when table statistics informed the choice)
    estimated_rows: float | None = None

    def describe(self) -> str:
        if self.kind == "seq":
            return f"Seq Scan on {self.table}"
        if self.kind == "index":
            keys = ", ".join(self.key_columns)
            return f"Index Scan using {self.index_name} on {self.table} (key: {keys})"
        if self.kind == "union":
            return (
                f"Index Union Scan using {self.index_name} on {self.table} "
                f"({self.union.describe() if self.union else ''})"
            )
        conditions = [
            f"{column} = {expr_to_sql(ast.Literal(value))}"
            for column, value in zip(self.key_columns, self.prefix_values)
        ]
        if self.range is not None:
            conditions.append(self.range.describe(self.range_column))
        if self.kind == "range":
            return (
                f"Index Range Scan using {self.index_name} on {self.table} "
                f"({' AND '.join(conditions)})"
            )
        order_text = ", ".join(self.order_columns) + (" DESC" if self.reverse else "")
        line = (
            f"Ordered Index Scan using {self.index_name} on {self.table} "
            f"(ORDER BY {order_text})"
        )
        if conditions:
            line += f" (cond: {' AND '.join(conditions)})"
        if self.limit is not None:
            line += f" (limit {self.limit})"
        return line


@dataclass
class JoinKey:
    """One hash-joinable equi conjunct: left binding.column = right column."""

    left_binding: str
    left_column: str
    right_column: str


@dataclass(eq=False)
class JoinPlan:
    """The chosen way to combine one new source into the joined relation."""

    kind: str  # INNER | LEFT | RIGHT | CROSS
    right_binding: str
    strategy: str = "nested-loop"  # "hash" | "nested-loop" | "cross"
    keys: list[JoinKey] = field(default_factory=list)
    residual: ast.Expr | None = None  # non-equi remainder of the ON condition
    condition: ast.Expr | None = None

    def describe(self) -> str:
        if self.strategy == "hash":
            keys = ", ".join(
                f"{k.left_binding}.{k.left_column} = "
                f"{self.right_binding}.{k.right_column}"
                for k in self.keys
            )
            return f"Hash Join ({self.kind}) on {self.right_binding} (keys: {keys})"
        if self.strategy == "nested-loop":
            cond = expr_to_sql(self.condition) if self.condition is not None else "true"
            return (
                f"Nested Loop Join ({self.kind}) on {self.right_binding} "
                f"(cond: {cond})"
            )
        return f"Cross Join on {self.right_binding}"


def split_conjuncts(expr: ast.Expr | None) -> list[ast.Expr]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[ast.Expr]) -> ast.Expr | None:
    """AND-fold a conjunct list back into a single predicate."""
    if not conjuncts:
        return None
    predicate = conjuncts[0]
    for conjunct in conjuncts[1:]:
        predicate = ast.BinaryOp("AND", predicate, conjunct)
    return predicate


def extract_equality_bindings(
    where: ast.Expr | None,
    binding: str,
    statement_sources: list[tuple[str, list[str] | None]] | None = None,
) -> list[EqualityBinding]:
    """Top-level AND-ed ``col = literal`` conjuncts attributable to ``binding``.

    Only unqualified columns or columns qualified with this binding are
    considered; anything more complex is left to the residual filter. When
    ``statement_sources`` is given (multi-source queries), unqualified
    columns must be unambiguous across the whole SELECT — otherwise an
    empty index probe could return ``[]`` where the WHERE evaluator must
    raise the ambiguity error.
    """
    bindings: list[EqualityBinding] = []
    lowered = binding.lower()
    for conjunct in split_conjuncts(where):
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            column_ref, literal = _column_literal_pair(
                conjunct.left, conjunct.right, lowered
            )
            if column_ref is None or literal is None or literal.value is None:
                continue
            if (
                column_ref.table is None
                and statement_sources is not None
                and not _unqualified_unambiguous(
                    column_ref.name.lower(), statement_sources
                )
            ):
                continue
            bindings.append(
                EqualityBinding(column_ref.name.lower(), literal.value)
            )
    return bindings


def _unqualified_unambiguous(
    name: str, statement_sources: list[tuple[str, list[str] | None]] | None
) -> bool:
    """Whether an unqualified ``name`` names exactly one statement column.

    ``statement_sources`` lists every source of the SELECT (not just those
    already folded into the join). With it absent, or with any source's
    columns unknown (views, derived tables), unqualified names are treated
    as unusable: resolving them against a partial view could mask the
    ambiguity error the evaluator would raise.
    """
    if statement_sources is None:
        return False
    count = 0
    for _, columns in statement_sources:
        if columns is None:
            return False
        count += sum(1 for c in columns if c.lower() == name)
    return count == 1


#: comparison op -> (is_lower_bound, inclusive) with the column on the left
_RANGE_OPS = {
    ">": (True, False),
    ">=": (True, True),
    "<": (False, False),
    "<=": (False, True),
}


def extract_range_bindings(
    where: ast.Expr | None,
    binding: str,
    statement_sources: list[tuple[str, list[str] | None]] | None = None,
) -> dict[str, RangeBinding]:
    """Top-level AND-ed range conjuncts attributable to ``binding``.

    Harvests ``col <op> literal`` (either operand order) for the four
    ordering comparisons, plus non-negated ``col BETWEEN lo AND hi``; NULL
    literals never bind (the comparison is three-valued false anyway).
    Name-resolution rules match :func:`extract_equality_bindings`:
    unqualified columns only bind when provably unambiguous across the
    whole statement. The harvested bounds only ever *narrow* a scan — the
    executor re-applies the full predicate to the candidate rows, so a
    range probe that over-approximates (e.g. across type ranks) stays
    correct.
    """
    lowered = binding.lower()
    ranges: dict[str, RangeBinding] = {}

    def usable(column_ref: ast.ColumnRef) -> bool:
        if column_ref.table is not None:
            return column_ref.table.lower() == lowered
        return statement_sources is None or _unqualified_unambiguous(
            column_ref.name.lower(), statement_sources
        )

    def bind(column: str) -> RangeBinding:
        return ranges.setdefault(column, RangeBinding(column))

    for conjunct in split_conjuncts(where):
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op in _RANGE_OPS:
            for column_side, literal_side, flip in (
                (conjunct.left, conjunct.right, False),
                (conjunct.right, conjunct.left, True),
            ):
                if (
                    isinstance(column_side, ast.ColumnRef)
                    and isinstance(literal_side, ast.Literal)
                    and literal_side.value is not None
                    and usable(column_side)
                ):
                    is_low, inclusive = _RANGE_OPS[conjunct.op]
                    if flip:  # literal <op> column reads backwards
                        is_low = not is_low
                    entry = bind(column_side.name.lower())
                    if is_low:
                        entry.tighten_low(literal_side.value, inclusive)
                    else:
                        entry.tighten_high(literal_side.value, inclusive)
                    break
        elif (
            isinstance(conjunct, ast.BetweenExpr)
            and not conjunct.negated
            and isinstance(conjunct.operand, ast.ColumnRef)
            and isinstance(conjunct.low, ast.Literal)
            and isinstance(conjunct.high, ast.Literal)
            and conjunct.low.value is not None
            and conjunct.high.value is not None
            and usable(conjunct.operand)
        ):
            entry = bind(conjunct.operand.name.lower())
            entry.tighten_low(conjunct.low.value, True)
            entry.tighten_high(conjunct.high.value, True)
    return ranges


def split_disjuncts(expr: ast.Expr) -> list[ast.Expr]:
    """Flatten a predicate into its top-level OR-ed disjuncts."""
    if isinstance(expr, ast.BinaryOp) and expr.op == "OR":
        return split_disjuncts(expr.left) + split_disjuncts(expr.right)
    return [expr]


def extract_union_bindings(
    where: ast.Expr | None,
    binding: str,
    statement_sources: list[tuple[str, list[str] | None]] | None = None,
) -> dict[str, UnionBinding]:
    """Top-level disjunctive conjuncts servable as index unions.

    Two shapes qualify, both over a single column of ``binding``:

    * ``col IN (v1, v2, ...)`` with every member a literal (non-negated;
      subquery candidates are left to the evaluator). NULL members match
      nothing under three-valued IN and are dropped; duplicates (by index
      ordering key, so ``1`` and ``1.0`` coincide) are deduplicated.
    * An OR-chain whose every disjunct is ``col = literal``, a range
      comparison, or non-negated BETWEEN on the same column. One failing
      disjunct disqualifies the whole chain — a union scan must cover
      *every* way the disjunction can be true, or it would drop rows.

    Name-resolution rules match :func:`extract_equality_bindings`. When
    several conjuncts bind the same column, the one with the fewest
    members wins (conjuncts intersect; either set alone is a superset of
    the answer, and the full WHERE is re-applied regardless).
    """
    lowered = binding.lower()
    unions: dict[str, UnionBinding] = {}

    def usable(column_ref: ast.ColumnRef) -> bool:
        if column_ref.table is not None:
            return column_ref.table.lower() == lowered
        return statement_sources is None or _unqualified_unambiguous(
            column_ref.name.lower(), statement_sources
        )

    def from_in(conjunct: ast.InExpr) -> UnionBinding | None:
        if conjunct.negated or not isinstance(conjunct.candidates, list):
            return None
        operand = conjunct.operand
        if not (isinstance(operand, ast.ColumnRef) and usable(operand)):
            return None
        if not all(isinstance(c, ast.Literal) for c in conjunct.candidates):
            return None
        entry = UnionBinding(operand.name.lower())
        seen: set = set()
        for candidate in conjunct.candidates:
            if candidate.value is None:
                continue  # NULL member: three-valued IN matches nothing
            key = ordering_key_element(candidate.value)
            if key not in seen:
                seen.add(key)
                entry.points.append(candidate.value)
        return entry

    def from_or(conjunct: ast.Expr) -> UnionBinding | None:
        disjuncts = split_disjuncts(conjunct)
        if len(disjuncts) < 2:
            return None
        entry: UnionBinding | None = None
        seen: set = set()
        for disjunct in disjuncts:
            column: str | None = None
            if isinstance(disjunct, ast.BinaryOp) and disjunct.op in (
                ("=",) + tuple(_RANGE_OPS)
            ):
                for column_side, literal_side, flip in (
                    (disjunct.left, disjunct.right, False),
                    (disjunct.right, disjunct.left, True),
                ):
                    if (
                        isinstance(column_side, ast.ColumnRef)
                        and isinstance(literal_side, ast.Literal)
                        and literal_side.value is not None
                        and usable(column_side)
                    ):
                        column = column_side.name.lower()
                        value = literal_side.value
                        if disjunct.op == "=":
                            member: "RangeBinding | None" = None
                        else:
                            is_low, inclusive = _RANGE_OPS[disjunct.op]
                            if flip:
                                is_low = not is_low
                            member = RangeBinding(column)
                            if is_low:
                                member.tighten_low(value, inclusive)
                            else:
                                member.tighten_high(value, inclusive)
                        break
                else:
                    return None
            elif (
                isinstance(disjunct, ast.BetweenExpr)
                and not disjunct.negated
                and isinstance(disjunct.operand, ast.ColumnRef)
                and isinstance(disjunct.low, ast.Literal)
                and isinstance(disjunct.high, ast.Literal)
                and disjunct.low.value is not None
                and disjunct.high.value is not None
                and usable(disjunct.operand)
            ):
                column = disjunct.operand.name.lower()
                member = RangeBinding(column)
                member.tighten_low(disjunct.low.value, True)
                member.tighten_high(disjunct.high.value, True)
            elif isinstance(disjunct, ast.InExpr):
                in_entry = from_in(disjunct)
                if in_entry is None:
                    return None
                column = in_entry.column
                member = None
                value = None  # points merged below
            else:
                return None
            if entry is None:
                entry = UnionBinding(column)
            elif entry.column != column:
                return None  # disjunction spans columns: not one index
            if isinstance(disjunct, ast.InExpr):
                for point in in_entry.points:
                    key = ordering_key_element(point)
                    if key not in seen:
                        seen.add(key)
                        entry.points.append(point)
            elif member is None:
                key = ordering_key_element(value)
                if key not in seen:
                    seen.add(key)
                    entry.points.append(value)
            else:
                entry.ranges.append(member)
        return entry

    for conjunct in split_conjuncts(where):
        if isinstance(conjunct, ast.InExpr):
            entry = from_in(conjunct)
        elif isinstance(conjunct, ast.BinaryOp) and conjunct.op == "OR":
            entry = from_or(conjunct)
        else:
            continue
        if entry is None:
            continue
        existing = unions.get(entry.column)
        # conjuncts intersect: the smaller candidate set is the better scan
        if existing is None or entry.members < existing.members:
            unions[entry.column] = entry
    return unions


def extract_pushdown_filter(
    where: ast.Expr | None,
    binding: str,
    columns: list[str],
    statement_sources: list[tuple[str, list[str] | None]] | None = None,
) -> ast.Expr | None:
    """The AND of WHERE conjuncts safe to evaluate during this source's scan.

    A conjunct qualifies when it compares one of this source's columns to a
    non-NULL literal with a null-rejecting operator. Because the full WHERE
    clause is re-applied after joins, pre-filtering only removes rows whose
    joined results the WHERE clause would reject — including rows an outer
    join would otherwise NULL-extend, which the null-rejecting conjunct then
    rejects too. Unqualified column references are only used when
    ``statement_sources`` proves them unambiguous across the whole SELECT.
    """
    if where is None:
        return None
    own_columns = _colmap(columns)  # a name exposed twice is ambiguous: not pushed
    lowered = binding.lower()
    kept: list[ast.Expr] = []
    for conjunct in split_conjuncts(where):
        if not (
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.op in NULL_REJECTING_COMPARISONS
        ):
            continue
        for column_side, literal_side in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if (
                isinstance(column_side, ast.ColumnRef)
                and isinstance(literal_side, ast.Literal)
                and literal_side.value is not None
                and own_columns.get(column_side.name.lower()) is not None
                and (
                    column_side.table.lower() == lowered
                    if column_side.table is not None
                    else _unqualified_unambiguous(
                        column_side.name.lower(), statement_sources
                    )
                )
            ):
                kept.append(conjunct)
                break
    return conjoin(kept)


def _column_literal_pair(
    left: ast.Expr, right: ast.Expr, binding: str
) -> tuple[ast.ColumnRef | None, ast.Literal | None]:
    for column_side, literal_side in ((left, right), (right, left)):
        if isinstance(column_side, ast.ColumnRef) and isinstance(
            literal_side, ast.Literal
        ):
            if column_side.table is None or column_side.table.lower() == binding:
                return column_side, literal_side
    return None, None


# --------------------------------------------------------------------------
# join planning
# --------------------------------------------------------------------------

# column maps are binding name -> {lowered column -> stored column}; a None
# map means the columns are unknown (EXPLAIN over views/derived tables),
# where only qualified refs resolve


def _colmap(columns: list[str] | None) -> dict[str, str | None] | None:
    """lower name -> stored name; duplicates within the source map to None.

    Derived tables can expose the same output name twice (``SELECT x AS w,
    y AS w``); such names must stay unresolvable so they fall to the
    evaluator, which raises the ambiguity error.
    """
    if columns is None:
        return None
    mapping: dict[str, str | None] = {}
    for column in columns:
        key = column.lower()
        mapping[key] = None if key in mapping else column
    return mapping


def _resolve_ref(
    ref: ast.ColumnRef, sources: list[tuple[str, dict[str, str | None] | None]]
) -> tuple[str, str] | None:
    """Resolve a column reference to ``(binding, stored column name)``."""
    name = ref.name.lower()
    if ref.table is not None:
        qualifier = ref.table.lower()
        for binding, columns in sources:
            if binding.lower() == qualifier:
                if columns is None:
                    return binding, ref.name
                actual = columns.get(name)
                return (binding, actual) if actual is not None else None
        return None
    hits: list[tuple[str, str]] = []
    for binding, columns in sources:
        if columns is None:
            return None  # unknown columns: unqualified names are uncertain
        if name in columns:
            actual = columns[name]
            if actual is None:
                return None  # duplicated within the source: ambiguous
            hits.append((binding, actual))
    return hits[0] if len(hits) == 1 else None


def _equi_key(
    conjunct: ast.Expr,
    lefts: list[tuple[str, dict[str, str] | None]],
    right: tuple[str, dict[str, str] | None],
    statement_sources: list[tuple[str, list[str] | None]] | None = None,
) -> JoinKey | None:
    """A hash key if ``conjunct`` equates one left column with one right.

    ON conjuncts resolve against the join's own scope (``lefts`` + right),
    exactly like the nested-loop evaluator would. WHERE conjuncts are
    name-resolved against the *whole* statement, so callers pass
    ``statement_sources``: an unqualified name that is ambiguous with a
    source not yet folded in must not become a key — the final WHERE
    filter raises for it, and hashing on it could empty the relation
    before that error surfaces.
    """
    if not (
        isinstance(conjunct, ast.BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ast.ColumnRef)
        and isinstance(conjunct.right, ast.ColumnRef)
    ):
        return None
    if statement_sources is not None:
        for ref in (conjunct.left, conjunct.right):
            if ref.table is None and not _unqualified_unambiguous(
                ref.name.lower(), statement_sources
            ):
                return None
    for left_ref, right_ref in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        left_hit = _resolve_ref(left_ref, lefts)
        right_hit = _resolve_ref(right_ref, [right])
        if left_hit is None or right_hit is None:
            continue
        # reject refs resolvable on both sides (ambiguous; leave to the
        # evaluator, which raises the proper error)
        if _resolve_ref(left_ref, [right]) is not None:
            continue
        if _resolve_ref(right_ref, lefts) is not None:
            continue
        return JoinKey(left_hit[0], left_hit[1], right_hit[1])
    return None


def plan_join(
    kind: str,
    condition: ast.Expr | None,
    where: ast.Expr | None,
    left_sources: list[tuple[str, list[str] | None]],
    right_binding: str,
    right_columns: list[str] | None,
    allow_hash: bool = True,
    statement_sources: list[tuple[str, list[str] | None]] | None = None,
) -> JoinPlan:
    """Choose a strategy for joining ``right_binding`` onto ``left_sources``.

    Equi-keys come from the ON condition and from cross-source equality
    conjuncts of the WHERE clause (always re-checked by the final WHERE
    filter, so harvesting them is safe for outer joins too). ON conjuncts
    that are not equi-keys become the residual predicate, evaluated per
    matched pair. ``statement_sources`` (all of the SELECT's sources) guards
    WHERE-conjunct name resolution; when omitted, WHERE keys only use
    qualified references.
    """
    lefts = [(binding, _colmap(columns)) for binding, columns in left_sources]
    right = (right_binding, _colmap(right_columns))
    keys: list[JoinKey] = []
    residual: list[ast.Expr] = []
    for conjunct in split_conjuncts(condition):
        key = _equi_key(conjunct, lefts, right)
        if key is not None:
            keys.append(key)
        else:
            residual.append(conjunct)
    where_scope = statement_sources if statement_sources is not None else []
    for conjunct in split_conjuncts(where):
        key = _equi_key(conjunct, lefts, right, where_scope)
        if key is not None and key not in keys:
            keys.append(key)
    plan = JoinPlan(kind=kind, right_binding=right_binding, condition=condition)
    if keys and allow_hash:
        plan.strategy = "hash"
        plan.keys = keys
        plan.residual = conjoin(residual)
    elif condition is None:
        plan.strategy = "cross"
    else:
        plan.strategy = "nested-loop"
    return plan


# --------------------------------------------------------------------------
# access-path choice
# --------------------------------------------------------------------------


def choose_access_path(
    table: str,
    heap: HeapTable,
    bindings: list[EqualityBinding],
    ranges: dict[str, RangeBinding] | None = None,
    allow_index: bool = True,
    unions: dict[str, UnionBinding] | None = None,
    stats: "TableStatistics | None" = None,
) -> "tuple[AccessPath, HashIndex | SortedIndex | None, tuple | None]":
    """Pick the best access path for one table.

    Without statistics, candidates rank in a static preference order:

    1. an index whose columns are *fully* equality-bound — prefer unique,
       then wider keys, then hash over btree (O(1) probe);
    2. a sorted index with an equality-bound column prefix followed by a
       range-bound column — prefer the longest equality prefix, then
       bounds on both sides over one;
    3. an index union over a disjunctively-bound column (IN-list /
       OR-chain) — a single-column hash index serves point-only unions,
       a btree whose *first* column is the bound one serves points and
       ranges;
    4. the sequential scan.

    With table statistics (``ANALYZE``, matching the live heap's ``uid``),
    every candidate instead gets an estimated row count — equality
    selectivity from NDV/histogram-boundary multiplicity, range
    selectivity from equi-depth histogram positions — and the cheapest
    estimate wins, falling back to the static order only to break ties.
    A column without statistics contributes no reduction (factor 1.0), so
    missing information never makes a path look artificially cheap.

    Returns ``(path, index, key)``; ``key`` is the probe key for equality
    paths and ``None`` otherwise (range/union details live on the path).
    """
    if not allow_index:
        return AccessPath(table, "seq"), None, None
    if stats is not None and stats.uid != heap.uid:
        stats = None  # table was dropped/recreated since ANALYZE: ignore
    by_column = {b.column: b.value for b in bindings}
    # (static_order, rank, kind, index, extra); lower order preferred,
    # higher rank preferred within an order class
    candidates: list[tuple] = []
    for index in heap.indexes.values():
        columns = tuple(c.lower() for c in index.columns)
        if columns and all(c in by_column for c in columns):
            rank = (index.unique, len(columns), index.kind == "hash")
            candidates.append((0, rank, "index", index, None))
    if ranges:
        for index in heap.indexes.values():
            if index.kind != "btree":
                continue
            columns = tuple(c.lower() for c in index.columns)
            prefix_len = 0
            while prefix_len < len(columns) and columns[prefix_len] in by_column:
                prefix_len += 1
            if prefix_len >= len(columns):
                continue  # fully bound is an equality candidate above
            entry = ranges.get(columns[prefix_len])
            if entry is None:
                continue
            rank = (prefix_len, entry.bounded_sides)
            candidates.append((1, rank, "range", index, (prefix_len, entry)))
    if unions:
        for index in heap.indexes.values():
            columns = tuple(c.lower() for c in index.columns)
            entry = unions.get(columns[0]) if columns else None
            if entry is None:
                continue
            # zero-member unions (e.g. ``x IN (NULL)``) stay eligible:
            # zero candidate rows is the correct (empty) answer
            if index.kind == "hash":
                if len(columns) != 1 or entry.ranges:
                    continue  # hash can only probe full-key points
                rank = (index.unique, True)
            else:
                rank = (index.unique, False)
            candidates.append((2, rank, "union", index, entry))
    candidates.append((3, (), "seq", None, None))
    candidates.sort(key=lambda c: (c[0], _negated_rank(c[1])))
    chosen = candidates[0]
    chosen_estimate: float | None = None
    if stats is not None:
        chosen_estimate = _estimate_rows(chosen, stats, by_column)
        for candidate in candidates[1:]:
            estimate = _estimate_rows(candidate, stats, by_column)
            if estimate < chosen_estimate:  # ties keep the static order
                chosen, chosen_estimate = candidate, estimate
    _, _, kind, index, extra = chosen
    if kind == "index":
        key = tuple(by_column[c.lower()] for c in index.columns)
        path = AccessPath(
            table,
            "index",
            index_name=index.name,
            key_columns=tuple(index.columns),
            estimated_rows=chosen_estimate,
        )
        return path, index, key
    if kind == "range":
        prefix_len, entry = extra
        path = AccessPath(
            table,
            "range",
            index_name=index.name,
            key_columns=tuple(index.columns[:prefix_len]),
            prefix_values=tuple(
                by_column[c.lower()] for c in index.columns[:prefix_len]
            ),
            range_column=index.columns[prefix_len],
            range=entry,
            estimated_rows=chosen_estimate,
        )
        return path, index, None
    if kind == "union":
        path = AccessPath(
            table,
            "union",
            index_name=index.name,
            key_columns=(index.columns[0],),
            union=extra,
            estimated_rows=chosen_estimate,
        )
        return path, index, None
    return AccessPath(table, "seq", estimated_rows=chosen_estimate), None, None


def _negated_rank(rank: tuple) -> tuple:
    """Sort key inverting a preference rank (higher rank sorts first)."""
    return tuple(-int(part) for part in rank)


def _estimate_rows(
    candidate: tuple, stats: "TableStatistics", by_column: dict[str, Any]
) -> float:
    """Cost-model row estimate for one access-path candidate."""
    _, _, kind, index, extra = candidate
    row_count = float(stats.row_count)
    if kind == "seq":
        return row_count
    if kind == "index":
        fraction = 1.0
        for column in index.columns:
            column_stats = stats.column(column)
            if column_stats is not None:
                fraction *= column_stats.eq_fraction(by_column[column.lower()])
        estimate = row_count * fraction
        return min(estimate, 1.0) if index.unique else estimate
    if kind == "range":
        prefix_len, entry = extra
        fraction = 1.0
        for column in index.columns[:prefix_len]:
            column_stats = stats.column(column)
            if column_stats is not None:
                fraction *= column_stats.eq_fraction(by_column[column.lower()])
        column_stats = stats.column(index.columns[prefix_len])
        if column_stats is not None:
            fraction *= column_stats.range_fraction(
                entry.low, entry.high, entry.incl_low, entry.incl_high
            )
        return row_count * fraction
    # union: sum of member estimates, capped at the table (members overlap)
    entry = extra
    column_stats = stats.column(entry.column)
    if column_stats is None:
        return row_count
    fraction = sum(column_stats.eq_fraction(v) for v in entry.points)
    fraction += sum(
        column_stats.range_fraction(r.low, r.high, r.incl_low, r.incl_high)
        for r in entry.ranges
    )
    return min(row_count * fraction, row_count)


# --------------------------------------------------------------------------
# the plan value: built once per block, rendered by EXPLAIN, run by the executor
# --------------------------------------------------------------------------

_RELATION_SCANS = {
    "view": "View Scan",
    "subquery": "Subquery Scan",
    "system": "System View Scan",
}


@dataclass(eq=False)
class ScanPlan:
    """How one source of a SELECT block — or an UPDATE/DELETE target — is read.

    A base table carries its access path with the heap, index and key to
    probe; a view or derived table carries the child block producing its
    rows; a system view needs only its name. Nodes compare by identity:
    tracer events and ``EXPLAIN ANALYZE`` actuals are keyed on the node.
    """

    binding: str
    #: node kind in tracer events: the access-path kind for base tables,
    #: else "view" | "subquery" | "system"
    kind: str
    name: str  # the relation as EXPLAIN prints it
    #: output columns; None only for a child block whose star cannot be
    #: expanded (running the block raises the proper error)
    columns: list[str] | None
    path: AccessPath | None = None
    heap: HeapTable | None = None
    index: "HashIndex | SortedIndex | None" = None
    key: tuple | None = None  # probe key of an "index" path
    #: pushed-down single-source predicate, applied before joining
    filter: ast.Expr | None = None
    child: "SelectPlan | None" = None

    def describe(self) -> str:
        if self.path is None:
            text = f"{_RELATION_SCANS[self.kind]} on {self.name}"
        else:
            text = self.path.describe()
        if self.filter is not None:
            text += f" (filter: {expr_to_sql(self.filter)})"
        if self.path is not None and self.path.estimated_rows is not None:
            text += f" (est. rows={self.path.estimated_rows:.0f})"
        return text


@dataclass(eq=False)
class SelectPlan:
    """The physical plan of one SELECT block."""

    stmt: ast.SelectStatement
    scans: list[ScanPlan]  # FROM sources, then JOIN sources: the fold order
    joins: list[JoinPlan]  # joins[i] folds scans[i + 1] onto the relation
    #: aggregate calls of the select list, HAVING and ORDER BY
    aggregates: list[ast.FunctionCall]
    set_op: "SelectPlan | None" = None  # right arm of ``stmt.set_op``

    @property
    def grouped(self) -> bool:
        return bool(self.stmt.group_by) or bool(self.aggregates)

    def output_columns(self) -> list[str] | None:
        """Result column names, known without executing — what lets a
        parent block plan joins and pushdown against a view or derived
        table. None when a star cannot be expanded: running the block
        raises the error, so the parent plans as if columns were unknown."""
        if any(scan.columns is None for scan in self.scans):
            return None
        try:
            items = expand_items(self.stmt.items, self.scans)
        except MiniDBError:
            return None
        return [item_name(item, index) for index, item in enumerate(items)]

    def lines(self, actuals: dict | None = None, indent: str = "") -> list[str]:
        """EXPLAIN text: scans in fold order (child blocks indented beneath
        their source), then joins, then the set-operation arm. ``actuals``
        maps plan nodes to the tracer event of their one execution."""

        def actual(node) -> str:
            if actuals is None:
                return ""
            event = actuals.get(node)
            if event is None:
                return " (never executed)"
            return (
                f" (actual rows={event['rows']},"
                f" time={event['duration_s'] * 1000.0:.3f} ms)"
            )

        out: list[str] = []
        for scan in self.scans:
            out.append(indent + scan.describe() + actual(scan))
            if scan.child is not None:
                out.extend(scan.child.lines(actuals, indent + "  "))
        out.extend(indent + join.describe() + actual(join) for join in self.joins)
        if not out:
            out.append(indent + "Result (no base tables)")
        if self.set_op is not None:
            out.append(indent + self.stmt.set_op[0])
            out.extend(self.set_op.lines(actuals, indent + "  "))
        return out


def collect_aggregates(expr: ast.Expr | None, out: list[ast.FunctionCall]) -> None:
    """Find aggregate FunctionCall nodes (not descending into subqueries)."""
    if expr is None:
        return
    if isinstance(expr, ast.FunctionCall):
        if expr.name in AGGREGATE_NAMES:
            out.append(expr)
            return  # nested aggregates are invalid; don't descend
        for arg in expr.args:
            collect_aggregates(arg, out)
        return
    if isinstance(expr, ast.BinaryOp):
        collect_aggregates(expr.left, out)
        collect_aggregates(expr.right, out)
    elif isinstance(expr, ast.UnaryOp):
        collect_aggregates(expr.operand, out)
    elif isinstance(expr, ast.CaseExpr):
        if expr.operand:
            collect_aggregates(expr.operand, out)
        for when, then in expr.whens:
            collect_aggregates(when, out)
            collect_aggregates(then, out)
        if expr.default:
            collect_aggregates(expr.default, out)
    elif isinstance(expr, ast.InExpr):
        collect_aggregates(expr.operand, out)
        if isinstance(expr.candidates, list):
            for c in expr.candidates:
                collect_aggregates(c, out)
    elif isinstance(expr, ast.BetweenExpr):
        collect_aggregates(expr.operand, out)
        collect_aggregates(expr.low, out)
        collect_aggregates(expr.high, out)
    elif isinstance(expr, (ast.LikeExpr,)):
        collect_aggregates(expr.operand, out)
        collect_aggregates(expr.pattern, out)
    elif isinstance(expr, ast.IsNullExpr):
        collect_aggregates(expr.operand, out)
    elif isinstance(expr, ast.CastExpr):
        collect_aggregates(expr.operand, out)


def expand_items(items: list[ast.SelectItem], sources: list) -> list[ast.SelectItem]:
    """Expand stars against ``sources`` (anything with ``binding`` and
    ``columns``) into concrete select items."""
    expanded: list[ast.SelectItem] = []
    for item in items:
        if isinstance(item.expr, ast.Star):
            star = item.expr
            targets = (
                [s for s in sources if s.binding.lower() == star.table.lower()]
                if star.table
                else sources
            )
            if star.table and not targets:
                raise UnknownTableError(
                    f"missing FROM-clause entry for table {star.table!r}"
                )
            if not targets:
                raise ExecutionError("SELECT * with no FROM clause")
            for source in targets:
                for col in source.columns:
                    expanded.append(
                        ast.SelectItem(
                            ast.ColumnRef(col, table=source.binding), alias=col
                        )
                    )
        else:
            expanded.append(item)
    return expanded


def item_name(item: ast.SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.ColumnRef):
        return item.expr.name
    if isinstance(item.expr, ast.FunctionCall):
        return item.expr.name.lower()
    return f"column{index + 1}"


def _order_columns_of(
    stmt: ast.SelectStatement, binding: str
) -> tuple[list[str], bool] | None:
    """ORDER BY as (lowered column list, reverse) when every item is a
    plain same-direction column of the single source (not shadowed by
    an output alias); DESC only for single columns."""
    directions = {order.descending for order in stmt.order_by}
    if len(directions) != 1:
        return None  # mixed ASC/DESC: no single index order matches
    reverse = directions.pop()
    aliases = {item.alias.lower() for item in stmt.items if item.alias}
    binding_key = binding.lower()
    order_columns: list[str] = []
    for order in stmt.order_by:
        expr = order.expr
        if not isinstance(expr, ast.ColumnRef):
            return None
        if expr.table is not None and expr.table.lower() != binding_key:
            return None
        if expr.table is None and expr.name.lower() in aliases:
            return None  # orders by the output item, not the column
        order_columns.append(expr.name.lower())
    if reverse and len(order_columns) != 1:
        return None
    return order_columns, reverse


def _ordered_path(
    stmt: ast.SelectStatement,
    binding: str,
    heap: HeapTable,
    path: AccessPath,
    by_column: dict[str, Any],
    ranges: dict[str, RangeBinding],
) -> "tuple[AccessPath, SortedIndex] | None":
    """An ordered scan serving ``stmt``'s ORDER BY, when one beats ``path``.

    Applies when every ORDER BY item is a plain same-direction column of
    the table and some sorted index's columns are exactly the
    WHERE-equality-bound prefix followed by the ORDER BY columns — then
    index order *is* the statement's sort order, ties included: equal
    keys store rids ascending, matching the stable sort over a rid-ordered
    scan. DESC is served for single-column suffixes only (see
    :meth:`SortedIndex.ordered_rids` for why reverse order is not a plain
    reversal). The generic ``path`` wins when it is a fully equality-bound
    probe or a disjunctive union (strictly more selective than scanning
    in order), or a range on a column the ordered index does not cover
    (it prunes rows the ordered scan would filter one by one) — there the
    generic path plus the bounded top-N sort is cheaper.
    """
    if path.kind in ("index", "union"):
        return None
    order = _order_columns_of(stmt, binding)
    if order is None:
        return None
    order_columns, reverse = order
    for index in heap.indexes.values():
        if index.kind != "btree":
            continue
        columns = [c.lower() for c in index.columns]
        prefix_len = len(columns) - len(order_columns)
        if prefix_len < 0 or columns[prefix_len:] != order_columns:
            continue
        if all(c in by_column for c in columns[:prefix_len]):
            break
    else:
        return None
    if path.kind == "range" and (path.range_column or "").lower() not in columns:
        return None
    ordered = AccessPath(
        path.table,
        "ordered",
        index_name=index.name,
        key_columns=tuple(index.columns[:prefix_len]),
        prefix_values=tuple(by_column[c] for c in columns[:prefix_len]),
        range_column=index.columns[prefix_len],
        range=ranges.get(columns[prefix_len]),
        order_columns=tuple(order_columns),
        reverse=reverse,
        limit=stmt.limit,
    )
    return ordered, index


def plan_table_scan(
    db: "Database",
    schema: "TableSchema",
    binding: str,
    where: ast.Expr | None,
    statement_sources: list[tuple[str, list[str] | None]] | None = None,
    order_by_of: ast.SelectStatement | None = None,
) -> ScanPlan:
    """The scan node for one base table — the single place an access path
    is chosen, for SELECT sources and UPDATE/DELETE targets alike.

    ``statement_sources`` (multi-source blocks) guards unqualified-name
    resolution; ``order_by_of`` names the single-table statement whose
    ORDER BY an ordered index scan may serve.
    """
    heap = db.heap(schema.name)
    allow_index = db.planner_options.get("enable_index_scan", True)
    bindings = extract_equality_bindings(where, binding, statement_sources)
    ranges = extract_range_bindings(where, binding, statement_sources)
    path, index, key = choose_access_path(
        schema.name,
        heap,
        bindings,
        ranges,
        allow_index=allow_index,
        unions=extract_union_bindings(where, binding, statement_sources),
        stats=db.catalog.statistics.get(schema.name.lower()),
    )
    if order_by_of is not None and allow_index:
        ordered = _ordered_path(
            order_by_of,
            binding,
            heap,
            path,
            {b.column: b.value for b in bindings},
            ranges,
        )
        if ordered is not None:
            path, index = ordered
            key = None
    return ScanPlan(
        binding, path.kind, schema.name, schema.column_names(),
        path=path, heap=heap, index=index, key=key,
    )


def plan_select(
    stmt: ast.SelectStatement, db: "Database", resolve_table
) -> SelectPlan:
    """Plan one SELECT block (recursively: views, derived tables and the
    set-operation arm become child blocks).

    ``resolve_table(name) -> TableSchema`` is called once per base-table
    source, in FROM-then-JOIN order with child blocks expanding in place,
    and nothing of this block is planned before every call has returned:
    the executor acquires the table's S lock inside it, so a scan that
    blocked behind DROP + CREATE plans against the recreated schema and
    indexes. Plain EXPLAIN passes the catalog lookup and locks nothing.
    """
    scans: list = []  # ScanPlan, or (binding, schema) until paths are planned
    statement_sources: list[tuple[str, list[str] | None]] = []
    for ref in list(stmt.from_sources) + [join.source for join in stmt.joins]:
        select = None
        if isinstance(ref, ast.SubqueryRef):
            binding, kind, name, select = ref.alias, "subquery", ref.alias, ref.subquery
        elif is_system_relation(ref.name):
            # virtual read-only relations served from already-synchronized
            # snapshots: no lock, introspection never blocks the system
            binding, kind, name = ref.binding, "system", ref.name.lower()
        elif db.catalog.has_view(ref.name):
            view = db.catalog.view(ref.name)
            binding, kind, name, select = ref.binding, "view", view.name, view.select
        else:
            schema = resolve_table(ref.name)
            scans.append((ref.binding, schema))
            statement_sources.append((ref.binding, schema.column_names()))
            continue
        if select is None:
            child, columns = None, SYSTEM_VIEW_COLUMNS[name]
        else:
            child = plan_select(select, db, resolve_table)
            columns = child.output_columns()
        scans.append(ScanPlan(binding, kind, name, columns, child=child))
        # WHERE conjuncts treat view / derived / system columns as unknown:
        # unqualified names are then never used for probes, keys or pushdown
        statement_sources.append((binding, None))

    aggregates: list[ast.FunctionCall] = []
    for item in stmt.items:
        collect_aggregates(item.expr, aggregates)
    collect_aggregates(stmt.having, aggregates)
    for order in stmt.order_by:
        collect_aggregates(order.expr, aggregates)

    single = len(scans) == 1
    # an ordered index scan needs a real ORDER BY and no machinery
    # (grouping, aggregates, DISTINCT, set ops) between scan and output order
    ordered_ok = (
        single
        and bool(stmt.order_by)
        and not (aggregates or stmt.group_by or stmt.distinct)
        and stmt.set_op is None
    )
    for position, scan in enumerate(scans):
        if not isinstance(scan, ScanPlan):
            binding, schema = scan
            scans[position] = scan = plan_table_scan(
                db,
                schema,
                binding,
                stmt.where,
                None if single else statement_sources,
                stmt if ordered_ok else None,
            )
        # pushdown only pays off when the filtered rows feed a join;
        # single-source blocks apply WHERE once, after the scan
        if not single and scan.columns:
            scan.filter = extract_pushdown_filter(
                stmt.where, scan.binding, scan.columns, statement_sources
            )

    # comma-separated FROM sources fold as conditionless inner joins (keys
    # come from WHERE), then the explicit joins fold the same way
    folds = [("INNER", None)] * len(stmt.from_sources)
    folds += [(join.kind, join.condition) for join in stmt.joins]
    allow_hash = db.planner_options.get("enable_hash_join", True)
    joins: list[JoinPlan] = []
    lefts: list[tuple[str, list[str] | None]] = []
    for scan, (kind, condition) in zip(scans, folds):
        if lefts:
            joins.append(
                plan_join(
                    kind, condition, stmt.where, lefts, scan.binding,
                    scan.columns, allow_hash, statement_sources,
                )
            )
        lefts.append((scan.binding, scan.columns))

    set_op = (
        plan_select(stmt.set_op[1], db, resolve_table)
        if stmt.set_op is not None
        else None
    )
    return SelectPlan(stmt, scans, joins, aggregates, set_op)
