"""Planning for minidb: one physical plan per statement.

:func:`plan_select` turns a SELECT block into a :class:`SelectPlan` — a
:class:`ScanPlan` per FROM/JOIN source, a :class:`JoinPlan` per fold, and
the set-operation arm as a child block. The executor only *consumes* the
nodes it is handed, ``EXPLAIN`` only *renders* them
(:meth:`SelectPlan.lines`), and ``EXPLAIN ANALYZE`` / the tracer record
actuals per execution, keyed by the node objects. Every planning decision
is therefore taken in this module and nowhere else (the ``planner-seam``
staticcheck rule enforces it).

**Shape and values.** A plan holds the *choice* — access-path kinds and
indexes, join strategies, pushed filters — and never a value of one
execution: a literal in the statement is an :class:`ast.Param` of its
template's shape (:mod:`repro.minidb.parser`), planned under the literal
vector ``params`` the planning execution supplies, and the probe key,
prefix values, range bounds, union points and ordered-scan limit are read
from each execution's vector by :meth:`ScanPlan.access`. A plan of a
statement that holds its literals plans and reads them with no vector. A
scan is *generic* when no decision read a value (:attr:`ScanPlan.generic`:
at most one candidate besides the sequential scan — ``_estimate_rows``
never estimates above ``seq``, and ties keep the static order, so a lone
candidate wins for any literal — and no two IN lists / OR-chains on one
column, whose member counts pick the union). A plan whose scans are all
generic is the executor's prepared plan for every execution of its
template (PostgreSQL's generic plan); any other is planned again on every
execution (its custom plan).

The parts:

* **Access paths** (:func:`plan_table_scan`, shared by SELECT sources and
  UPDATE/DELETE targets) — one reader, ``_atom``, recognises a column
  compared with literals; :func:`harvest_conjuncts` sorts the top-level
  AND-ed conjuncts it reads into equalities, which probe a covering index,
  ranges, which slice a ``USING BTREE`` index's sorted run (optionally
  behind an equality-bound prefix), and IN lists / single-column OR-chains,
  which become index unions (:func:`choose_access_path` ranks them, by
  cost after ``ANALYZE``). When a sorted index's order *is* the ORDER BY
  the scan becomes an ``ordered`` path that stops after OFFSET+LIMIT
  survivors. :func:`pushdown_filter` pushes the null-rejecting comparisons
  on a source's own columns into the scans of multi-source blocks. The full
  WHERE is always re-applied afterwards, so every path is a pure
  candidate-set reduction.

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

Which column each name means is not decided here: the binder
(:mod:`repro.minidb.analysis`) gave every column reference a slot, and
the planner reads a conjunct's slots to tell whose columns it compares.

**Error-surfacing contract.** Planning never changes *results*: a query
that evaluates without errors returns the same rows under every strategy.
Name-resolution errors (unknown or ambiguous columns) are raised by the
binder before any plan is built. Data-dependent *evaluation* errors (e.g. comparing an ``INT``
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

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple

from ..obs.views import SYSTEM_VIEW_COLUMNS, is_system_relation
from . import ast_nodes as ast
from .analysis import Binding, Slot, analyze, item_name
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

    def describe(self, params=()) -> str:
        if self.strategy == "hash":
            keys = ", ".join(
                f"{k.left_binding}.{k.left_column} = "
                f"{self.right_binding}.{k.right_column}"
                for k in self.keys
            )
            return f"Hash Join ({self.kind}) on {self.right_binding} (keys: {keys})"
        if self.strategy == "nested-loop":
            cond = _sql(self.condition, params) if self.condition is not None else "true"
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


class Harvest(NamedTuple):
    """What one binding's top-level WHERE conjuncts offer its access path;
    every key is a lower-cased column name."""

    equalities: dict[str, Any]  # column -> value of its last ``=`` conjunct
    ranges: dict[str, RangeBinding]
    unions: dict[str, UnionBinding]
    #: two union conjuncts on one column: the fewest members won
    contested: bool = False


#: comparison op -> the op that reads the same with its operands swapped
_FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: comparison op -> (is_lower_bound, inclusive) with the column on the left
_RANGE_OPS = {
    ">": (True, False),
    ">=": (True, True),
    "<": (False, False),
    "<=": (False, True),
}


def _value(node: ast.Expr, params) -> Any:
    """The value a literal operand holds — a :class:`ast.Literal`'s, or a
    :class:`ast.Param`'s slot of ``params`` (with ``params`` None, the
    Param itself) — else :data:`_NOT_LITERAL`."""
    kind = type(node)
    if kind is ast.Literal:
        return node.value
    if kind is ast.Param:
        return node if params is None else params[node.index]
    return _NOT_LITERAL


_NOT_LITERAL = object()


def _atom(expr: ast.Expr, usable, params=()) -> tuple[str, str, Any] | None:
    """``expr`` read as ``(column, op, value)``: a ``usable`` column
    compared with literals (a Param reads ``params``) — the one place the
    planner recognises that shape.

    ``op`` is one of ``= <> < <= > >=`` (a literal on the left flips it:
    ``5 < a`` reads ``a > 5``), ``between`` with value ``(low, high)``, or
    ``in`` with the tuple of member values, NULLs included. A NULL literal
    anywhere else (the comparison is three-valued false, binding nothing),
    NOT BETWEEN / NOT IN, a subquery IN or any non-literal operand gives
    ``None``. ``column`` is lower-cased.
    """
    if isinstance(expr, ast.BinaryOp) and expr.op in _FLIPPED:
        column, op, literal = expr.left, expr.op, expr.right
        if not isinstance(column, ast.ColumnRef):
            column, op, literal = literal, _FLIPPED[op], column
        value = _value(literal, params)
        if value is _NOT_LITERAL or value is None:
            return None
    elif isinstance(expr, ast.BetweenExpr) and not expr.negated:
        column, op = expr.operand, "between"
        value = (_value(expr.low, params), _value(expr.high, params))
        if _NOT_LITERAL in value or None in value:
            return None
    elif (
        isinstance(expr, ast.InExpr)
        and not expr.negated
        and isinstance(expr.candidates, list)
    ):
        column, op = expr.operand, "in"
        value = tuple(_value(c, params) for c in expr.candidates)
        if _NOT_LITERAL in value:
            return None
    else:
        return None
    if isinstance(column, ast.ColumnRef) and usable(column):
        return column.name.lower(), op, value
    return None


def harvest_conjuncts(
    where: ast.Expr | None,
    binding: str,
    slots: "Mapping[int, Slot] | None" = None,
    params=(),
) -> Harvest:
    """What the top-level AND-ed conjuncts of ``where`` bind on
    ``binding``'s columns, read in one pass:

    * ``equalities`` — ``col = literal``; of several on one column the
      last wins.
    * ``ranges`` — ``<, <=, >, >=`` and BETWEEN; several on one column
      keep the tightest bound on each side.
    * ``unions`` — ``col IN (literal, ...)``, or an OR-chain whose every
      disjunct is an ``=``, range, BETWEEN or IN atom on one column (any
      other disjunct could be true outside the union). NULL members match
      nothing and are dropped; duplicates go by index ordering key, so
      ``1`` and ``1.0`` coincide. Of several on one column the fewest
      members win: conjuncts intersect.

    A binding only *narrows* a scan: the full WHERE is re-applied to the
    candidate rows, so over-approximating (a range across type ranks)
    stays correct.

    A reference counts when its slot names a column of ``binding`` in
    this block. Without ``slots`` (a bare WHERE, read as one table's) a
    qualified reference must name ``binding`` and an unqualified one is
    taken as its. A :class:`ast.Param` reads its value from ``params``.
    ``contested`` says that two union conjuncts on one column competed, so
    which one binds depended on their values.
    """
    if slots is None:
        lowered = binding.lower()

        def usable(ref: ast.ColumnRef) -> bool:
            return ref.table is None or ref.table.lower() == lowered
    else:
        def usable(ref: ast.ColumnRef) -> bool:
            return _owner(ref, slots) == binding

    equalities: dict[str, Any] = {}
    ranges: dict[str, RangeBinding] = {}
    unions: dict[str, UnionBinding] = {}
    contested = False
    for conjunct in split_conjuncts(where):
        atom = _atom(conjunct, usable, params)
        if atom is None:
            union = _or_union(conjunct, usable, params)
        elif atom[1] == "in":
            union = UnionBinding(atom[0], _distinct(atom[2]))
        else:
            column, op, value = atom
            if op == "=":
                equalities[column] = value
            elif op != "<>":
                _narrow(ranges.setdefault(column, RangeBinding(column)), op, value)
            continue
        if union is None:
            continue
        if union.column in unions:
            contested = True
            if union.members >= unions[union.column].members:
                continue
        unions[union.column] = union
    return Harvest(equalities, ranges, unions, contested)


def _or_union(expr: ast.Expr, usable, params) -> UnionBinding | None:
    """An OR-chain as one column's candidate set, if it is one."""
    if not (isinstance(expr, ast.BinaryOp) and expr.op == "OR"):
        return None
    column: str | None = None
    points: list = []
    ranges: list[RangeBinding] = []
    for disjunct in split_disjuncts(expr):
        atom = _atom(disjunct, usable, params)
        if atom is None or atom[1] == "<>" or column not in (None, atom[0]):
            return None  # not a member, or the chain spans columns
        column, op, value = atom
        if op == "=":
            points.append(value)
        elif op == "in":
            points.extend(value)
        else:
            ranges.append(_narrow(RangeBinding(column), op, value))
    return UnionBinding(column, _distinct(points), ranges)


def _distinct(values) -> list:
    """The non-NULL ``values`` in order, one per index ordering key."""
    seen: set = set()
    points = []
    for value in values:
        if value is not None:
            key = ordering_key_element(value)
            if key not in seen:
                seen.add(key)
                points.append(value)
    return points


def _narrow(bound: RangeBinding, op: str, value: Any) -> RangeBinding:
    """``bound`` tightened by one range atom."""
    if op == "between":
        bound.tighten_low(value[0], True)
        bound.tighten_high(value[1], True)
    else:
        is_low, inclusive = _RANGE_OPS[op]
        if is_low:
            bound.tighten_low(value, inclusive)
        else:
            bound.tighten_high(value, inclusive)
    return bound


def split_disjuncts(expr: ast.Expr) -> list[ast.Expr]:
    """Flatten a predicate into its top-level OR-ed disjuncts."""
    if isinstance(expr, ast.BinaryOp) and expr.op == "OR":
        return split_disjuncts(expr.left) + split_disjuncts(expr.right)
    return [expr]


def _owner(ref: ast.ColumnRef, slots: "Mapping[int, Slot]") -> str | None:
    """The binding of this block whose column ``ref`` reads, or None (an
    outer block's column)."""
    slot = slots.get(id(ref))
    return None if slot is None or slot[0] else slot[1]


def pushdown_filter(
    where: ast.Expr | None, binding: str, slots: "Mapping[int, Slot]", params=()
) -> ast.Expr | None:
    """The AND of WHERE conjuncts safe to evaluate during one source's scan.

    A conjunct qualifies when its atom compares a column of ``binding``
    (by its slot) to a non-NULL literal with a null-rejecting comparison.
    Because the full WHERE
    clause is re-applied after joins, pre-filtering only removes rows whose
    joined results the WHERE clause would reject — including rows an outer
    join would otherwise NULL-extend, which the null-rejecting conjunct
    then rejects too. Only multi-source blocks push down.
    """

    def usable(ref: ast.ColumnRef) -> bool:
        return _owner(ref, slots) == binding

    kept: list[ast.Expr] = []
    for conjunct in split_conjuncts(where):
        atom = _atom(conjunct, usable, params)
        if atom is not None and atom[1] in NULL_REJECTING_COMPARISONS:
            kept.append(conjunct)
    return conjoin(kept)


# --------------------------------------------------------------------------
# join planning
# --------------------------------------------------------------------------


def _equi_key(
    conjunct: ast.Expr,
    slots: "Mapping[int, Slot]",
    folded: list[str],
    right_binding: str,
) -> JoinKey | None:
    """A hash key if ``conjunct`` equates one column of the join's left
    side with one of its right (``right_binding``): both slots must name
    columns of ``folded``, the sources joined so far and the right one."""
    if not (
        isinstance(conjunct, ast.BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ast.ColumnRef)
        and isinstance(conjunct.right, ast.ColumnRef)
    ):
        return None
    hits = [slots.get(id(ref)) for ref in (conjunct.left, conjunct.right)]
    if None in hits or any(depth or b not in folded for depth, b, _ in hits):
        return None
    left, right = hits if hits[1][1] == right_binding else hits[::-1]
    if left[1] == right_binding or right[1] != right_binding:
        return None  # both names on one side
    return JoinKey(left[1], left[2], right[2])


def plan_join(
    kind: str,
    condition: ast.Expr | None,
    where: ast.Expr | None,
    right_binding: str,
    folded: list[str],
    slots: "Mapping[int, Slot]",
) -> JoinPlan:
    """Choose a strategy for joining ``right_binding`` onto the sources
    before it; ``folded`` are their bindings and the right one's.

    Equi-keys come from the ON condition and from cross-source equality
    conjuncts of the WHERE clause (always re-checked by the final WHERE
    filter, so harvesting them is safe for outer joins too). ON conjuncts
    that are not equi-keys become the residual predicate, evaluated per
    matched pair.
    """
    keys: list[JoinKey] = []
    residual: list[ast.Expr] = []
    for conjunct in split_conjuncts(condition):
        key = _equi_key(conjunct, slots, folded, right_binding)
        if key is not None:
            keys.append(key)
        else:
            residual.append(conjunct)
    for conjunct in split_conjuncts(where):
        key = _equi_key(conjunct, slots, folded, right_binding)
        if key is not None and key not in keys:
            keys.append(key)
    if keys:
        return JoinPlan(kind, right_binding, "hash", keys, conjoin(residual), condition)
    strategy = "cross" if condition is None else "nested-loop"
    return JoinPlan(kind, right_binding, strategy, condition=condition)


# --------------------------------------------------------------------------
# access-path choice
# --------------------------------------------------------------------------


def choose_access_path(
    table: str,
    heap: HeapTable,
    harvest: Harvest,
    stats: "TableStatistics | None" = None,
) -> "tuple[AccessPath, HashIndex | SortedIndex | None, tuple | None]":
    """Pick the best access path for one table from its WHERE ``harvest``.

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
    return _chosen(table, _candidates(heap, harvest), harvest.equalities, stats, heap)


def _candidates(heap: HeapTable, harvest: Harvest) -> list[tuple]:
    """Every access path ``harvest`` allows on ``heap`` as ``(static_order,
    rank, kind, index, extra)``, best first in the static order (lower
    order preferred, higher rank within an order class); the sequential
    scan last."""
    by_column, ranges, unions = harvest.equalities, harvest.ranges, harvest.unions
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
    return candidates


def _live(stats: "TableStatistics | None", heap: HeapTable) -> "TableStatistics | None":
    """``stats`` unless the table was dropped/recreated since ANALYZE."""
    return None if stats is None or stats.uid != heap.uid else stats


def _chosen(
    table: str,
    candidates: list[tuple],
    by_column: dict[str, Any],
    stats: "TableStatistics | None",
    heap: HeapTable,
) -> "tuple[AccessPath, HashIndex | SortedIndex | None, tuple | None]":
    """The cheapest of ``candidates`` under live ``stats`` (else the first)
    as ``choose_access_path`` returns it."""
    stats = _live(stats, heap)
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

    A base table carries its access path's choice (kind, index, columns)
    with the heap and index to read, and what the path's values are read
    from: ``where`` (its conjuncts, read through ``slots``), the statement
    whose LIMIT an ordered path stops at (``limit_of``) and the statistics
    the choice was made under (``stats``, also its estimates); a view or
    derived table carries the child block producing its rows; a system
    view needs only its name. Nodes compare by identity: tracer events and
    ``EXPLAIN ANALYZE`` actuals are keyed on the node.
    """

    binding: str
    #: node kind in tracer events: the access-path kind for base tables,
    #: else "view" | "subquery" | "system"
    kind: str
    name: str  # the relation as EXPLAIN prints it
    columns: list[str]  # output columns

    path: AccessPath | None = None  # the choice, without values
    heap: HeapTable | None = None
    index: "HashIndex | SortedIndex | None" = None
    where: ast.Expr | None = None
    slots: "Mapping[int, Slot] | None" = None
    limit_of: ast.SelectStatement | None = None
    stats: "TableStatistics | None" = None
    #: no choice read a value: the path holds for every literal vector
    generic: bool = True
    #: an ``index`` path's key, per index column: the constant, or the
    #: Param whose slot an execution's vector fills
    key_of: tuple | None = None
    #: pushed-down single-source predicate, applied before joining
    filter: ast.Expr | None = None
    child: "SelectPlan | None" = None

    def access(
        self, params=(), estimate: bool = False
    ) -> "tuple[AccessPath | None, tuple | None]":
        """The access path with the values of the execution whose literal
        vector is ``params`` — prefix values, range bounds, union points,
        the ordered limit and (with ``estimate``) the estimated rows — and
        the probe key of an ``index`` path."""
        path = self.path
        kind = None if path is None else path.kind
        key = None
        if kind == "index":
            key = tuple([params[s.index] if type(s) is ast.Param else s for s in self.key_of])
        if kind is None or (kind in ("seq", "index") and not estimate):
            return path, key
        harvest = harvest_conjuncts(self.where, self.binding, self.slots, params)
        by_column = harvest.equalities
        values, extra = {}, None
        if kind == "union":
            extra = values["union"] = harvest.unions[path.key_columns[0].lower()]
        elif kind in ("range", "ordered"):
            values["prefix_values"] = tuple(by_column[c.lower()] for c in path.key_columns)
            values["range"] = harvest.ranges.get(path.range_column.lower())
            extra = (len(path.key_columns), values["range"])
            if kind == "ordered":
                values["limit"] = count_of(self.limit_of.limit, params)
        stats = _live(self.stats, self.heap) if estimate and kind != "ordered" else None
        if stats is not None:
            values["estimated_rows"] = _estimate_rows(
                (0, (), kind, self.index, extra), stats, by_column
            )
        return (replace(path, **values) if values else path), key

    @property
    def key(self) -> tuple | None:
        """The probe key of an ``index`` path over a statement that holds
        its literals."""
        return self.access()[1]

    def describe(self, params=()) -> str:
        path, _ = self.access(params, estimate=True)
        if path is None:
            text = f"{_RELATION_SCANS[self.kind]} on {self.name}"
        else:
            text = path.describe()
        if self.filter is not None:
            text += f" (filter: {_sql(self.filter, params)})"
        if path is not None and path.estimated_rows is not None:
            text += f" (est. rows={path.estimated_rows:.0f})"
        return text


def count_of(value, params) -> int | None:
    """A LIMIT / OFFSET: the count, or its Param's slot of ``params``."""
    return params[value.index] if type(value) is ast.Param else value


def _sql(expr: ast.Expr, params) -> str:
    """``expr`` as SQL, each Param printed as its value in ``params``."""
    return expr_to_sql(ast.with_params_bound(expr, params) if params else expr)


@dataclass(eq=False)
class SelectPlan:
    """The physical plan of one SELECT block."""

    stmt: ast.SelectStatement
    scans: list[ScanPlan]  # FROM sources, then JOIN sources: the fold order
    joins: list[JoinPlan]  # joins[i] folds scans[i + 1] onto the relation
    #: aggregate calls of the select list, HAVING and ORDER BY
    aggregates: list[ast.FunctionCall]
    items: list[ast.SelectItem]  # the select list, stars expanded
    #: the statement's binding: every column reference's slot
    binding: Binding
    set_op: "SelectPlan | None" = None  # right arm of ``stmt.set_op``

    @property
    def grouped(self) -> bool:
        return bool(self.stmt.group_by) or bool(self.aggregates)

    @property
    def generic(self) -> bool:
        """Every scan of every block is generic: the plan serves any
        literal vector of its statement."""
        return all(
            scan.generic and (scan.child is None or scan.child.generic)
            for scan in self.scans
        ) and (self.set_op is None or self.set_op.generic)

    def output_columns(self) -> list[str]:
        """Result column names, known without executing — what a parent
        block's scan of a view or derived table exposes."""
        return [item_name(item, index) for index, item in enumerate(self.items)]

    def lines(
        self, actuals: dict | None = None, indent: str = "", params=()
    ) -> list[str]:
        """EXPLAIN text: scans in fold order (child blocks indented beneath
        their source), then joins, then the set-operation arm, with the
        values of the literal vector ``params``. ``actuals`` maps plan
        nodes to the tracer event of their one execution."""

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
            out.append(indent + scan.describe(params) + actual(scan))
            if scan.child is not None:
                # a view's body holds its literals; a derived table's
                # are the statement's
                child_params = () if scan.kind == "view" else params
                out.extend(scan.child.lines(actuals, indent + "  ", child_params))
        out.extend(
            indent + join.describe(params) + actual(join) for join in self.joins
        )
        if not out:
            out.append(indent + "Result (no base tables)")
        if self.set_op is not None:
            out.append(indent + self.stmt.set_op[0])
            out.extend(self.set_op.lines(actuals, indent + "  ", params))
        return out


def collect_aggregates(expr: ast.Expr | None, out: list[ast.FunctionCall]) -> None:
    """Append the aggregate calls in ``expr`` to ``out`` in tree order,
    entering neither an aggregate (nested aggregates are invalid) nor a
    subquery (``children`` never yields one)."""
    if expr is None:
        return
    if isinstance(expr, ast.FunctionCall) and expr.name in AGGREGATE_NAMES:
        out.append(expr)
        return
    for child in ast.children(expr):
        collect_aggregates(child, out)


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
    harvest: Harvest,
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
    by_column = harvest.equalities
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
        range=harvest.ranges.get(columns[prefix_len]),
        order_columns=tuple(order_columns),
        reverse=reverse,
    )
    return ordered, index


def plan_table_scan(
    db: "Database",
    schema: "TableSchema",
    binding: str,
    where: ast.Expr | None,
    slots: "Mapping[int, Slot]",
    order_by_of: ast.SelectStatement | None = None,
    params=(),
) -> ScanPlan:
    """The scan node for one base table — the single place an access path
    is chosen, for SELECT sources and UPDATE/DELETE targets alike.

    ``slots`` say which conjuncts read ``binding``'s columns, ``params``
    is the literal vector their Params read; ``order_by_of`` names the
    single-table statement whose ORDER BY an ordered index scan may serve.
    The node keeps the choice; :meth:`ScanPlan.access` reads the values.
    """
    heap = db.heap(schema.name)
    harvest = harvest_conjuncts(where, binding, slots, params)
    stats = db.catalog.statistics.get(schema.name.lower())
    candidates = _candidates(heap, harvest)
    path, index, _ = _chosen(schema.name, candidates, harvest.equalities, stats, heap)
    if order_by_of is not None:
        ordered = _ordered_path(order_by_of, binding, heap, path, harvest)
        if ordered is not None:
            path, index = ordered
    choice = replace(
        path, prefix_values=(), range=None, union=None, estimated_rows=None
    )
    key_of = None
    if path.kind == "index":
        # each column's last ``=`` operand, as harvest_conjuncts reads it
        sources = {}
        for conjunct in split_conjuncts(where):
            atom = _atom(conjunct, lambda ref: _owner(ref, slots) == binding, None)
            if atom is not None and atom[1] == "=":
                sources[atom[0]] = atom[2]
        key_of = tuple(sources[c.lower()] for c in index.columns)
    return ScanPlan(
        binding, path.kind, schema.name, schema.column_names(),
        path=choice, heap=heap, index=index, where=where, slots=slots,
        limit_of=order_by_of, stats=stats,
        generic=len(candidates) <= 2 and not harvest.contested, key_of=key_of,
    )


def plan_select(
    stmt: ast.SelectStatement,
    db: "Database",
    resolve_table,
    binding: Binding | None = None,
    params=(),
) -> SelectPlan:
    """Plan one SELECT block (recursively: views, derived tables and the
    set-operation arm become child blocks) under the statement's
    ``binding`` (default: ``stmt`` bound as a statement of its own), its
    Params read from the literal vector ``params``.

    ``resolve_table(name) -> TableSchema`` is called once per base-table
    source, in FROM-then-JOIN order with child blocks expanding in place,
    and nothing of this block is planned before every call has returned:
    the executor acquires the table's S lock inside it, so a scan that
    blocked behind DROP + CREATE plans against the recreated schema and
    indexes. Plain EXPLAIN passes the catalog lookup and locks nothing.
    """
    if binding is None:
        binding = analyze(stmt, db.catalog).binding
        binding.check()
    slots = binding.slots
    scans: list = []  # ScanPlan, or (binding, schema) until paths are planned
    for ref in list(stmt.from_sources) + [join.source for join in stmt.joins]:
        select = None
        if isinstance(ref, ast.SubqueryRef):
            kind, name, select = "subquery", ref.alias, ref.subquery
        elif is_system_relation(ref.name):
            # virtual read-only relations served from already-synchronized
            # snapshots: no lock, introspection never blocks the system
            kind, name = "system", ref.name.lower()
        elif db.catalog.has_view(ref.name):
            view = db.catalog.view(ref.name)
            kind, name, select = "view", view.name, view.select
        else:
            scans.append((ref.binding, resolve_table(ref.name)))
            continue
        if select is None:
            child, columns = None, SYSTEM_VIEW_COLUMNS[name]
        else:
            # a view's body holds its literals and has its own binding
            child = plan_select(
                select, db, resolve_table, binding, () if kind == "view" else params
            )
            columns = child.output_columns()
        source = ref.alias if kind == "subquery" else ref.binding
        scans.append(ScanPlan(source, kind, name, columns, child=child))

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
            source, schema = scan
            scans[position] = scan = plan_table_scan(
                db, schema, source, stmt.where, slots,
                stmt if ordered_ok else None, params,
            )
        # pushdown only pays off when the filtered rows feed a join;
        # single-source blocks apply WHERE once, after the scan
        if not single:
            scan.filter = pushdown_filter(stmt.where, scan.binding, slots, params)

    # comma-separated FROM sources fold as conditionless inner joins (keys
    # come from WHERE), then the explicit joins fold the same way
    folds = [("INNER", None)] * len(stmt.from_sources)
    folds += [(join.kind, join.condition) for join in stmt.joins]
    bindings = [scan.binding for scan in scans]
    joins = [
        plan_join(
            kind, condition, stmt.where, bindings[position],
            bindings[: position + 1], slots,
        )
        for position, (kind, condition) in enumerate(folds[1:], 1)
    ]

    set_op = (
        plan_select(stmt.set_op[1], db, resolve_table, binding, params)
        if stmt.set_op is not None
        else None
    )
    return SelectPlan(
        stmt, scans, joins, aggregates, binding.items(stmt), binding, set_op
    )
