"""Statement executor: the query-processing core of minidb.

The executor receives parsed AST statements plus a :class:`Session` and
runs them against the database's catalog and heaps. Reads are executed
here; a mutating statement takes its locks, validates (types, constraints,
foreign keys) and then hands each physical change, as a record, to the
session's transaction manager (``session.tx.apply`` →
:mod:`repro.minidb.changes`), which performs it and keeps its undo — so
every statement is atomic, every explicit transaction can roll back, and
recovery replays what the statement ran. No ``_exec_*`` method mutates a
heap or the catalog itself.

Every SELECT block is planned by :func:`repro.minidb.planner.plan_select`,
and this module only *consumes* the
:class:`~repro.minidb.planner.SelectPlan` it is handed: access paths, the
index to probe, pushed-down filters and join strategies are all read off
plan nodes (``EXPLAIN`` renders the same value; tracer events and
``EXPLAIN ANALYZE`` actuals are keyed on the node objects).
UPDATE/DELETE resolve their target rows through the same scan planner.
A block is planned only after the S locks on its base tables are granted
(:meth:`Executor._plan_select`), under the statement's binding; a name
error the binder recorded is raised before any lock or row
(:meth:`Executor.execute`).

**Prepared plans.** A statement :func:`~repro.minidb.parser.parse` bound
from a template runs as the template's *shape* (each literal an
:class:`~repro.minidb.ast_nodes.Param`) with its literal vector
(:meth:`Executor._statement`). Every plan the executor runs — a
statement's, a subquery's, an UPDATE/DELETE target scan — gets its
kernels where it is planned, in one place (:meth:`Executor._prepare`),
and a plan built from the shape whose every choice held for any literal
(``SelectPlan.generic``) is kept on the template with them
(:class:`_PreparedPlan`): later executions take their S locks in FROM
order, check the key — catalog version, each scanned table's statistics
object and heap uid — and run it, reading the probe key, range bounds
and every literal from their own vector. Nothing of an execution is
stored on a plan.
Privileges and the verifier are never cached: they run before the
executor, on every call.

One pipeline runs every planned block — single table, join, view,
derived table or system view alike — as an operator sequence over one
columnar value, the :class:`_Relation` (per binding a column store of the
statically referenced columns plus a pick vector of row indexes into it):

* **scan** (:meth:`Executor._scan`) — one operator for every
  :class:`~repro.minidb.planner.ScanPlan` kind: the heap's one cut or one
  fetch of the access path's rids (in index order, and in doubling steps
  under a LIMIT, for an ``ordered`` path); a child block's result or a
  system view's rows transposed. The scan applies its *own* predicate to
  that batch and keeps its lists as the column store: the pushed-down
  conjuncts of a multi-source block, or the whole WHERE of an ordered scan
  (which stops after OFFSET+LIMIT survivors and so skips the sort). The
  same operator resolves UPDATE/DELETE targets, since batches carry rids.
* **join** (:meth:`Executor._join`) — hash, nested-loop and cross joins
  all produce candidate-pair index vectors, narrow them with the residual
  / ON predicate, then decide LEFT/RIGHT NULL extension; the result is two
  pick vectors, never a copied row per pair.
* **where**, then **group / project** (:meth:`Executor._aggregate`,
  :meth:`Executor._project`) over the relation's columns, and the tail:
  DISTINCT, set operations, ORDER BY / bounded top-N via ``heapq``,
  OFFSET/LIMIT. Select items and ORDER BY keys stay columns through the
  tail — a key that is not an output column rides along as a hidden one
  (:func:`_order_targets`), every ORDER BY sorts through one key builder
  (:func:`_sort_keys`), and rows are built once, from the survivors.

There are two expression engines (:mod:`repro.minidb.expressions`): batch
kernels (:func:`~repro.minidb.expressions.compile_batch_expr`, called by
:meth:`Executor._prepare` only), which read
``relation.column(binding, name)``, and the AST interpreter — the
reference, and the only path for subquery-bearing or correlated
expressions — which reads the same relation through a per-row
:class:`~repro.minidb.expressions.Scope`; both read each name through
the slot the binder (:mod:`repro.minidb.analysis`) gave it before the
statement ran, so no name is resolved here. Every expression position
is a column (:meth:`Executor._compile`): its value per row, from the
kernel its plan holds for it or from the interpreter, with an erroring
row's error deferred in place either way, so no operator branches on
which engine computed it. Every predicate (scan, join, WHERE, DML
targets) goes through one seam, :meth:`Executor._selector`: one column
per operator, evaluated over chunks of at most ``batch_size`` rows; keep
what is ``True``, and raise a deferred
error only when the walk reaches its row; projection and group keys
raise the first deferred error in row-major order, aggregates in fold
order. Like the kernels' typed paths (:mod:`repro.minidb.expressions`),
the selector, ORDER BY / top-N and GROUP BY run in C on a vector whose
values all lie in one class where the per-row code provably returns the
same thing, and per row on any other. Correlated subqueries are
supported via scope chaining.

Every alternative path is reached from its input: a seq scan reads a
table without a usable index, a nested loop joins on a condition with no
equi-key, a full sort orders a statement without LIMIT.
``db.planner_options`` holds one knob, ``batch_size`` — the rows per
kernel call in the selector, and the cap on one fetch of a limit-bound
path — which no plan reads (the equivalence suites' reference leg is an
executor that ignores every kernel, at ``batch_size=1``);
``db.planner_stats`` counts what actually ran.
"""

from __future__ import annotations

import heapq
from functools import reduce
from itertools import compress, filterfalse, islice, repeat
from operator import add, is_not, itemgetter, ne, neg
from time import perf_counter
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, NamedTuple

from ..obs.views import system_view_rows
from . import ast_nodes as ast
from .analysis import Binding, StatementAnalysis, analyze
from .batch import BatchError, RowBatch
from .catalog import Column, ForeignKey, TableSchema
from .errors import (
    CheckViolation,
    DuplicateColumnError,
    DuplicateObjectError,
    ExecutionError,
    ForeignKeyViolation,
    MiniDBError,
    NotNullViolation,
    TransactionError,
    UnknownTableError,
)
from .expressions import (
    FOLD_CLASS,
    GROUP_CLASS,
    NULL_CLASS,
    SORT_NUMBER_CLASS,
    TEXT_CLASS,
    TRUTH_CLASS,
    BoolVector,
    Evaluator,
    Scope,
    compile_batch_expr,
    in_class,
    vector_fact,
)
from .functions import AGGREGATE_NAMES, make_aggregate
from .parser import count_plan, prepared
from .planner import (
    JoinPlan,
    ScanPlan,
    SelectPlan,
    count_of,
    plan_select,
    plan_table_scan,
)
from .engines.serial import dump_column, dump_table_schema
from .result import ResultSet
from .sqlgen import expr_to_sql, select_to_sql
from .statistics import build_table_statistics
from .storage import HeapTable, Row, ordering_key_element
from .types import ColumnType, coerce

if TYPE_CHECKING:  # pragma: no cover
    from .database import Database, Session


# --------------------------------------------------------------------------
# helper structures for SELECT
# --------------------------------------------------------------------------


#: the fewest positions a gather takes through one ``itemgetter``: from
#: here on its argument and result tuples (8 bytes a position) are past
#: pymalloc's 512-byte small-object limit. Below it, exact-size tuples of
#: every length each claimed a 16 KiB pymalloc pool, which raised
#: ``oltp_durable``'s peak RSS by 0.35 MB (its point statements gather
#: 2 to 99 rows at a time)
_ITEMGETTER_MIN = 64


def _gatherer(pick) -> Callable[[list], list]:
    """``take(values)``: ``values`` cut to the positions of the pick vector
    ``pick``, in its order. Built once per pick vector and applied to
    every column it cuts: a ``range`` slices, a long vector goes through
    one ``itemgetter`` (a C loop, its argument tuple built once), a short
    one through ``map``. A pick vector that may hold ``None`` (a
    NULL-extended row) is never handed here: its gathers keep their
    per-element ``None`` test."""
    if type(pick) is range:
        return lambda values: values[pick.start : pick.stop]
    if len(pick) >= _ITEMGETTER_MIN:
        get = itemgetter(*pick)
        return lambda values: list(get(values))
    return lambda values: list(map(values.__getitem__, pick))


class _Relation:
    """The value every SELECT operator consumes and produces.

    Per binding a column store (``stores[binding]``: column name -> value
    list, holding only the statically referenced columns) plus a pick
    vector of row indexes into it (``None`` entry: the row is
    NULL-extended on that binding; ``None`` vector: row *i* of the
    relation is row *i* of the store). Only a LEFT/RIGHT join's NULL
    extension and the empty group's NULL row put ``None`` entries in a
    pick vector; ``nullable`` names the bindings whose vectors may hold
    one, and every other vector is gathered without a ``None`` test.
    Filters and joins only rewrite pick vectors; ``column`` gathers a
    column's values on first use, which is all a compiled kernel ever
    asks for. ``row`` is the cursor the interpreter's :class:`Scope`
    reads the relation's names at.

    ``facts[binding]`` maps a binding's column names to their class facts
    (the scanned batches' :attr:`RowBatch.facts`) and goes wherever the
    binding's store goes; a binding without facts — a view or derived
    table, a system view, a NULL-extended side — has no entry. ``fact``
    answers for a column ``column`` handed out, by identity: the list is
    held by the relation, so no other list can share its ``id``.
    """

    __slots__ = (
        "stores", "picks", "length", "nullable", "facts", "row",
        "_columns", "_facts", "_gathers",
    )

    def __init__(
        self, stores: dict, picks: dict, length: int, nullable=frozenset(), facts=None
    ):
        self.stores = stores
        self.picks = picks
        self.length = length
        self.nullable = nullable
        self.facts = {} if facts is None else facts
        self.row = 0
        self._columns: dict[tuple[str, str], list] = {}
        self._facts: dict[int, frozenset] = {}
        self._gathers: dict[str, Callable[[list], list]] = {}

    def column(self, binding: str, name: str) -> list:
        col = self._columns.get((binding, name))
        if col is None:
            stored = self.stores[binding][name]
            pick = self.picks[binding]
            if pick is None:
                col = stored
            elif binding in self.nullable:
                col = [None if i is None else stored[i] for i in pick]
            else:
                take = self._gathers.get(binding)
                if take is None:
                    take = self._gathers[binding] = _gatherer(pick)
                col = take(stored)
            self._columns[(binding, name)] = col
            facts = self.facts.get(binding)
            if facts is not None:
                self._facts[id(col)] = facts[name]
        return col

    def fact(self, values: list) -> "frozenset | None":
        """The class fact of ``values`` when it is one of this relation's
        columns with a stored fact, else ``None``."""
        return self._facts.get(id(values))

    def take(self, rows, nulls: bool = False) -> "_Relation":
        """The relation of this one's ``rows``, in that order (``nulls``:
        ``rows`` may hold ``None``, a row NULL on every binding, and the
        facts go: a NULL-extended column holds a type they do not)."""
        picks = {}
        take = None
        for binding, pick in self.picks.items():
            if pick is None:
                picks[binding] = rows
            elif nulls:
                picks[binding] = [None if i is None else pick[i] for i in rows]
            else:
                if take is None:
                    take = _gatherer(rows)
                picks[binding] = take(pick)
        if nulls:
            return _Relation(self.stores, picks, len(rows), frozenset(picks))
        return _Relation(self.stores, picks, len(rows), self.nullable, self.facts)

    def slice(self, start: int, stop: int) -> "_Relation":
        picks = {
            b: range(start, stop) if pick is None else pick[start:stop]
            for b, pick in self.picks.items()
        }
        return _Relation(self.stores, picks, stop - start, self.nullable, self.facts)

    def beside(self, other: "_Relation") -> "_Relation":
        """Row *i* of this relation paired with row *i* of ``other``."""
        return _Relation(
            {**self.stores, **other.stores},
            {**self.picks, **other.picks},
            self.length,
            self.nullable | other.nullable,
            {**self.facts, **other.facts},
        )


_OPAQUE = frozenset({ast.Star, ast.ExistsExpr, ast.ScalarSubquery})


def _opaque(expr: ast.Expr) -> bool:
    """A star or a subquery: which columns it reads is not in the tree."""
    kind = type(expr)
    return kind in _OPAQUE or (kind is ast.InExpr and type(expr.candidates) is not list)


def _referenced_names(exprs: list) -> "set[str] | None":
    """Lowercased column names ``exprs`` can touch, or ``None`` when the
    set is not statically determinable (stars, subqueries) — a scan then
    materializes every column, exactly the cases where per-row fallback
    evaluation could read an arbitrary name. An aggregate's ``*`` reads
    no column, so a counting scan reads no values."""
    refs: set[str] = set()
    stack = [expr for expr in exprs if expr is not None]
    while stack:
        expr = stack.pop()
        kind = type(expr)
        if kind is ast.ColumnRef:
            refs.add(expr.name.lower())
        elif kind is ast.FunctionCall and expr.name in AGGREGATE_NAMES:
            stack.extend(a for a in expr.args if type(a) is not ast.Star)
        elif kind is not ast.Literal:
            if _opaque(expr):
                return None
            stack.extend(ast.children(expr))
    return refs


def _statement_exprs(stmt: ast.SelectStatement) -> list:
    """Every expression position of one SELECT block."""
    exprs: list[ast.Expr | None] = [item.expr for item in stmt.items]
    exprs.extend(join.condition for join in stmt.joins)
    exprs.append(stmt.where)
    exprs.extend(stmt.group_by)
    exprs.append(stmt.having)
    exprs.extend(order.expr for order in stmt.order_by)
    return exprs


def _raise_first_batch_error(columns: list[list], relation: _Relation) -> None:
    """Raise the deferred error the interpreter would have hit first.

    It walks rows outermost and select items innermost, so the first
    error it raises is the minimum (row, item) pair in lexicographic
    order; within one item column only the earliest row can win. A
    column that *is* one of ``relation``'s own — what the kernel of a
    column reference returns — holds stored values, never an error, and
    is not walked."""
    stored = {id(col) for col in relation._columns.values()}
    best: "tuple[int, int, BatchError] | None" = None
    for c, col in enumerate(columns):
        if id(col) in stored:
            continue
        kinds = list(map(type, col))
        if BatchError in kinds:
            r = kinds.index(BatchError)
            if best is None or (r, c) < (best[0], best[1]):
                best = (r, c, col[r])
    if best is not None:
        raise best[2].exc


def _order_insensitive_output(
    stmt: ast.SelectStatement, aggregates: list[ast.FunctionCall]
) -> bool:
    """True when the statement's output provably ignores input row order.

    The qualifying shape is the agent-common ``SELECT COUNT(*) FROM ...``:
    one ungrouped aggregate row whose expressions never read a concrete
    row (COUNT only — SUM/AVG float accumulation is order-sensitive at the
    bit level; bare columns and stars read the first row of the group, and
    subqueries may correlate against it). Index probes feeding such
    statements may skip their rid sort.
    """
    if stmt.group_by or stmt.distinct or stmt.set_op is not None:
        return False
    if not aggregates or any(a.name != "COUNT" for a in aggregates):
        return False
    stack = [item.expr for item in stmt.items]
    stack.extend(order.expr for order in stmt.order_by)
    if stmt.having is not None:
        stack.append(stmt.having)
    while stack:
        expr = stack.pop()
        kind = type(expr)
        if kind is ast.ColumnRef or _opaque(expr):
            return False
        if not (kind is ast.FunctionCall and expr.name in AGGREGATE_NAMES):
            stack.extend(ast.children(expr))
    return True


def _order_targets(
    order_by: list, width: int, positions: "dict[int, int]"
) -> "tuple[list[tuple[int, bool]], list[ast.Expr]]":
    """Where each ORDER BY key is read, as ``(position, descending)``: a
    position among the ``width`` output columns followed by the returned
    hidden key expressions, which are evaluated beside the select items
    (the role of PostgreSQL's resjunk columns). An ordinal is an output
    position, and a name the binder found among the output names is that
    output column (``positions``). The binder refused an ordinal out of
    range, and a key after a set operation that is neither, before any
    lock or row (42P10, as PostgreSQL refuses them at analysis)."""
    targets: list[tuple[int, bool]] = []
    hidden: list[ast.Expr] = []
    for order in order_by:
        expr = order.expr
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value - 1
        elif id(expr) in positions:
            position = positions[id(expr)]
        else:
            position = width + len(hidden)
            hidden.append(expr)
        targets.append((position, order.descending))
    return targets, hidden


def _length(values: list[list]) -> int:
    """Rows in a block's output columns (none without a column)."""
    return len(values[0]) if values else 0


def _gather(columns: list[list], picks) -> list[list]:
    """``columns`` cut to the rows ``picks``, in that order."""
    take = _gatherer(picks)
    return [take(col) for col in columns]


def _first_of_each(rows) -> list[int]:
    """Index of the first row of each set of equal rows (DISTINCT)."""
    first: dict[tuple, int] = {}
    for i, row in enumerate(rows):
        first.setdefault(_row_marker(row), i)
    return list(first.values())


class _AggregateEvaluator(Evaluator):
    """Evaluator that resolves aggregate calls from a precomputed map."""

    def __init__(self, run_subquery, computed: dict[int, Any]):
        super().__init__(run_subquery)
        self._computed = computed

    def _eval_FunctionCall(self, expr: ast.FunctionCall, scope: Scope) -> Any:
        if expr.name in AGGREGATE_NAMES:
            try:
                return self._computed[id(expr)]
            except KeyError:
                raise ExecutionError(
                    f"aggregate {expr.name}() used in an invalid position"
                ) from None
        return super()._eval_FunctionCall(expr, scope)


_NULL_SENTINEL = ("<null>",)


def _row_marker(row) -> tuple:
    """A row's identity for GROUP BY, DISTINCT and set operations: NULLs
    are one value, and values of different types never match (``1``,
    ``1.0`` and ``TRUE`` are three)."""
    return tuple(_NULL_SENTINEL if v is None else (type(v).__name__, v) for v in row)


#: ORDER BY sort keys and SortedIndex entry order share one total order —
#: that identity is what lets an index-ordered scan replace a sort
#: bit-for-bit, so there is exactly one definition (storage.py)
_sort_key_element = ordering_key_element


def _descending_key_element(value: Any) -> tuple:
    """The DESC sort key: the NULL/type rank stays ascending (NULLS LAST
    either way), only the value ordering within each class is reversed."""
    element = _sort_key_element(value)
    return (element[0], _Reversed(element[1]), _Reversed(element[2]))


def _own_sort_class(values: list, fact: "frozenset | None") -> "frozenset | None":
    """TEXT_CLASS or SORT_NUMBER_CLASS when ``values`` are their own ORDER
    BY key — only ``str``, or only ``int``/``float`` and no NaN — else
    ``None``. There ``ordering_key_element`` is a bijection that preserves
    order, so sorting the values themselves is sorting their keys. The
    type half reads the class ``fact``; the NaN half is always a pass."""
    if in_class(TEXT_CLASS, values, fact):
        return TEXT_CLASS
    if in_class(SORT_NUMBER_CLASS, values, fact) and not any(map(ne, values, values)):
        return SORT_NUMBER_CLASS
    return None


def _sort_keys(key_columns: "list[tuple[list, bool, frozenset | None]]"):
    """The one ORDER BY key builder: per-row sort keys for ``(values,
    descending, fact)`` key columns, and whether to sort them in reverse.
    One key column that is its own key is used as is, DESC by reversing
    the sort. Among several, an own-key column is its own element
    ascending, and a numeric one is its negated value DESC (exact on
    ``int`` and ``float``); any other column maps ``ordering_key_element``
    — wrapped for DESC — and the columns are zipped. (Mapped DESC keys
    compare through ``_Reversed`` in Python: a 10k-row ``ORDER BY dwell_s
    DESC LIMIT 10`` takes ≈ 7x as long on them as on the column itself.)"""
    owns = [_own_sort_class(values, fact) for values, _, fact in key_columns]
    if len(key_columns) == 1 and owns[0] is not None:
        return key_columns[0][:2]
    columns = []
    for (values, descending, _), own in zip(key_columns, owns):
        if own is not None and not descending:
            columns.append(values)
        elif own is SORT_NUMBER_CLASS:
            columns.append(list(map(neg, values)))
        else:
            columns.append(list(map(
                _descending_key_element if descending else _sort_key_element, values
            )))
    return (columns[0] if len(columns) == 1 else list(zip(*columns))), False


def _column_fact(
    expr: ast.Expr, names: Scope, relation: "_Relation"
) -> "frozenset | None":
    """The class fact of the column ``expr`` reads when it is a bare column
    of this block (``None`` for any other expression): it holds for any
    of that column's values at ``relation``'s rows."""
    slot = names.slots.get(id(expr)) if type(expr) is ast.ColumnRef else None
    if slot is None or slot[0]:
        return None
    facts = relation.facts.get(slot[1])
    return None if facts is None else facts.get(slot[2])


def _groups_by_value(key: list, relation: "_Relation") -> bool:
    """Whether the one GROUP BY key column ``key`` holds one GROUP_CLASS
    type at most beside NULL, so its values group as ``_row_marker`` does:
    by its class fact, else one pass for the type of its first non-NULL
    value."""
    fact = vector_fact(relation, key)
    if fact is not None:
        kinds = fact - NULL_CLASS
        if len(kinds) <= 1 and kinds <= GROUP_CLASS:
            return True
    first = next(compress(key, map(is_not, key, repeat(None))), None)
    cls = NULL_CLASS | {type(first)}
    return cls - NULL_CLASS <= GROUP_CLASS and cls.issuperset(map(type, key))


def _fold_avg(values: list) -> "float | None":
    # from 0.0, in member order, like AvgAggregate
    return reduce(add, values, 0.0) / len(values) if values else None


#: aggregates folded over a member slice of an all-int/float argument
#: vector, equal to the accumulator fed the same values in the same order.
#: Never builtin ``sum``: since CPython 3.12 it compensates float sums,
#: which changes the last bits against the accumulator and the interpreter
_FOLDS: "dict[str, Callable[[list], Any]]" = {
    "COUNT": len,
    "SUM": lambda values: reduce(add, values) if values else None,
    "AVG": _fold_avg,
    "MIN": lambda values: min(values, default=None),
    "MAX": lambda values: max(values, default=None),
}


class _PreparedPlan(NamedTuple):
    """A template's prepared plan (a SELECT's :class:`SelectPlan`, or an
    UPDATE/DELETE target's :class:`ScanPlan`) with its key and what was
    compiled for it.
    Immutable once kept, and shared by every session and thread that runs
    the template; nothing of one execution is stored here."""

    version: int  #: ``Catalog.version`` it was planned under
    #: (table key, its TableStatistics object or None, its heap's uid) per
    #: base-table scan: statistics by identity, so the object a rolled-back
    #: ANALYZE restores is recognised
    tables: tuple
    locks: tuple  #: tables S-locked in FROM order, on every execution
    plan: "SelectPlan | ScanPlan"
    #: by node identity: each expression's kernel (None: interpreted) and
    #: each block's (columns its scans read, output ignores row order)
    compiled: Mapping


class _PlanText(NamedTuple):
    """A plan with the literal vector it ran with: what the slow-statement
    log renders (``lines()``, as the tracer expects)."""

    plan: SelectPlan
    params: tuple

    def lines(self) -> list[str]:
        return self.plan.lines(params=self.params)


def _blocks(plan: SelectPlan) -> Iterator[SelectPlan]:
    """``plan`` and every child block and set-operation arm in it."""
    yield plan
    for scan in plan.scans:
        if scan.child is not None:
            yield from _blocks(scan.child)
    if plan.set_op is not None:
        yield from _blocks(plan.set_op)


def _block_expressions(plan: SelectPlan) -> Iterator[ast.Expr]:
    """Every expression position the executor compiles for one block:
    scan predicates (a multi-source block's pushed-down conjuncts; an
    ordered scan applies the WHERE), join predicates, WHERE, select items,
    hidden ORDER BY keys, group keys and aggregate arguments."""
    stmt = plan.stmt
    ordered = bool(plan.scans) and plan.scans[0].kind == "ordered"
    for scan in plan.scans:
        yield scan.filter
    for join in plan.joins:
        yield join.residual if join.strategy == "hash" else join.condition
    yield stmt.where
    yield from (item.expr for item in plan.items)
    _, hidden = _order_targets(
        [] if ordered else stmt.order_by, len(plan.items), plan.binding.order
    )
    yield from hidden
    yield from stmt.group_by
    for agg in plan.aggregates:
        if agg.args and not isinstance(agg.args[0], ast.Star):
            yield agg.args[0]


# --------------------------------------------------------------------------
# executor
# --------------------------------------------------------------------------


class Executor:
    def __init__(self, database: "Database"):
        self.db = database

    # ------------------------------------------------------------ dispatch

    def execute(
        self,
        stmt: ast.Statement,
        session: "Session",
        analysis: StatementAnalysis | None = None,
    ) -> ResultSet:
        """Run ``stmt``; ``analysis`` is its :func:`analyze` result when the
        caller has one. A name error the binder recorded is raised here,
        before any lock is taken or any row is read."""
        name = type(stmt).__name__
        handler = getattr(self, f"_exec_{name}", None)
        if handler is None:
            raise ExecutionError(f"unsupported statement {name}")
        bound = None if analysis is None else analysis.binding
        return handler(stmt, session, self._current(stmt, bound))

    def _current(self, stmt: ast.Statement, binding: Binding | None) -> Binding:
        """``stmt``'s binding under the catalog as it is now — ``binding``
        when no schema change landed since, else a fresh one (a statement
        that waited for a lock reads its names again) — its name error
        raised."""
        if binding is None or binding.version != self.db.catalog.version:
            binding = analyze(stmt, self.db.catalog).binding
        binding.check()
        return binding

    # -------------------------------------------------------------- SELECT

    def _exec_SelectStatement(
        self, stmt: ast.SelectStatement, session: "Session", binding: Binding
    ) -> ResultSet:
        shape, params, template = self._statement(stmt)
        plan, compiled = self._plan_select(stmt, shape, session, binding, params, template)
        trace = self.db.tracer.current()
        if trace is not None:
            trace.plan = _PlanText(plan, params)  # what the slow-statement log renders
        names, values = self._run_plan(plan, session, None, params, compiled)
        return ResultSet(
            columns=names, values=values, rowcount=_length(values), status="SELECT"
        )

    @staticmethod
    def _statement(stmt: ast.Statement) -> "tuple[Any, tuple, Any]":
        """What runs for ``stmt``: its template's shape, its literal vector
        and the template — or, for a statement no template holds, itself,
        no vector and ``None`` (planned afresh every time)."""
        found = prepared(stmt)
        if found is None:
            return stmt, (), None
        template, params = found
        return template.shape, params, template

    def _plan_select(
        self,
        stmt: ast.Statement,
        select: ast.SelectStatement,
        session: "Session",
        binding: Binding,
        params: tuple = (),
        template: Any = None,
    ) -> "tuple[SelectPlan, Mapping]":
        """``stmt``'s ``select`` (of its shape, when ``template`` holds it)
        planned for execution, with what was compiled for it. Reads
        take a shared lock per base table, held to transaction end (no-op
        without a lock manager), in FROM order; a schema is resolved only
        after its lock is granted (see :meth:`_locked_table`), and the
        template's prepared plan is trusted only if its key still holds
        once every lock is granted (:meth:`_reuse`). So nothing runs
        against a table a concurrent DROP + CREATE replaced while this
        statement waited: when the catalog moved meanwhile, ``stmt`` is
        bound and planned again, under the locks it now holds. A plan
        whose every choice held for any literal is kept for the template
        (:meth:`_prepare`); any other is this execution's own."""
        while True:
            entry = None if template is None else self._reuse(template, session)
            if entry is not None:
                plan = entry.plan
            else:
                locks: list[str] = []
                plan = self._plan(select, session, binding, params, locks)
            current = self._current(stmt, binding)
            if current is binding:
                break
            binding = current
        if entry is not None:
            count_plan("hits")
            return plan, entry.compiled
        return plan, self._prepare(plan, binding, template, locks)

    def _reuse(self, template: Any, session: "Session") -> "_PreparedPlan | None":
        """``template``'s prepared plan if it is current: same catalog
        version, then — after the S locks on its tables are taken in FROM
        order — still the same version, and the same statistics object
        and heap for every table it scans."""
        entry = template.plan
        db = self.db
        if entry is None or entry.version != db.catalog.version:
            return None
        for name in entry.locks:
            session.lock_table(name, "S")
        if entry.version != db.catalog.version:
            return None  # a schema change landed while a lock was waited for
        statistics = db.catalog.statistics
        for key, stats, uid in entry.tables:
            if statistics.get(key) is not stats or db.heap(key).uid != uid:
                return None
        return entry

    def _prepare(
        self,
        plan: "SelectPlan | ScanPlan",
        binding: Binding,
        template: Any = None,
        locks: "list | tuple" = (),
        reads: "list | tuple" = (),
    ) -> Mapping:
        """The one compile site: what every plan the executor runs reads,
        by node identity — each expression position's batch kernel (``None``
        where the interpreter runs it) and each block's (columns its scans
        read, output ignores row order); for an UPDATE/DELETE target scan,
        its WHERE kernel and the columns its WHERE and ``reads`` name.

        Built once per plan, under ``binding``'s catalog version: a generic
        plan is kept as ``template``'s prepared plan (a miss), with
        ``locks``, and every later execution reads the map it was kept
        with. A custom plan, one no template holds and a subquery's are
        this execution's own."""
        if isinstance(plan, ScanPlan):
            compiled: dict[int, Any] = {id(plan): _referenced_names([plan.where, *reads])}
            exprs = [plan.where]
            scans = [plan]
        else:
            blocks = list(_blocks(plan))
            compiled = {
                id(block): (
                    _referenced_names(_statement_exprs(block.stmt)),
                    _order_insensitive_output(block.stmt, block.aggregates),
                )
                for block in blocks
            }
            exprs = [expr for block in blocks for expr in _block_expressions(block)]
            scans = [scan for block in blocks for scan in block.scans if scan.heap is not None]
        for expr in exprs:
            if expr is not None:
                compiled[id(expr)] = compile_batch_expr(expr, binding.slots)
        if template is None:
            return compiled
        if not plan.generic:
            count_plan("custom")
            return compiled
        count_plan("misses")
        tables = tuple((scan.name.lower(), scan.stats, scan.heap.uid) for scan in scans)
        entry = _PreparedPlan(
            binding.version, tables, tuple(locks), plan, MappingProxyType(compiled)
        )
        template.plan = entry
        return entry.compiled

    def _plan(
        self,
        select: ast.SelectStatement,
        session: "Session",
        binding: Binding,
        params: tuple,
        locks: "list[str] | None" = None,
    ) -> SelectPlan:
        """The one place a SELECT block is planned to run — a statement's
        (then kept, or its custom plan) and a subquery's when it runs —
        each base table resolved after its S lock is granted, in FROM
        order; ``locks`` collects the locked tables' names."""

        def resolve(name: str) -> TableSchema:
            schema = self._locked_table(session, name, "S")
            if locks is not None:
                locks.append(schema.name)
            return schema

        return plan_select(select, self.db, resolve, binding, params)

    def _run_select(
        self,
        stmt: ast.SelectStatement,
        session: "Session",
        outer: Scope,
        binding: Binding,
    ) -> tuple[list[str], list[tuple]]:
        """Run a subquery block of a statement bound by ``binding``,
        planned and compiled when it runs, under the statement's literal
        vector: its column names and rows."""
        plan = self._plan(stmt, session, binding, outer.params)
        compiled = self._prepare(plan, binding)
        names, values = self._run_plan(plan, session, outer, outer.params, compiled)
        return names, list(zip(*values))

    def _run_plan(
        self,
        plan: SelectPlan,
        session: "Session",
        outer: Scope | None,
        params: tuple,
        compiled: Mapping,
    ) -> tuple[list[str], list[list]]:
        """Run one planned block: scan -> join -> filter -> group/project
        over one :class:`_Relation`, then the tail (DISTINCT, set
        operation, ORDER BY / top-N, OFFSET/LIMIT), reading the literal
        vector ``params`` and what was ``compiled`` for the plan. Returns
        the output column names and one value list per output column."""

        def run_subquery(sub: ast.SelectStatement, scope: Scope) -> list[tuple]:
            _, sub_rows = self._run_select(sub, session, scope, plan.binding)
            return sub_rows

        evaluator = Evaluator(run_subquery)
        stmt = plan.stmt
        scans = plan.scans
        # an ordered scan hands over rows in ORDER BY order with WHERE
        # applied, cut at OFFSET+LIMIT: no filter and no sort after it
        ordered = bool(scans) and scans[0].kind == "ordered"
        limit = count_of(stmt.limit, params)
        offset = count_of(stmt.offset, params) or 0
        needed = limit + offset if limit is not None else None
        refs, unordered = compiled[id(plan)]
        trace = self.db.tracer.current()

        names = Scope(plan.binding.slots, None, outer, params, compiled)
        relation = _Relation({}, {}, 1)  # no FROM clause: one empty row
        for position, scan in enumerate(scans):
            started = perf_counter() if trace is not None else 0.0
            if ordered:
                source, _, examined = self._scan(
                    scan, session, names, evaluator, refs, stmt.where,
                    limit=needed,
                )
            else:
                # pushed-down conjuncts: a row whose conjunct raised an
                # ExecutionError (e.g. a type-mismatched ordering) is kept
                # for the final WHERE, which raises only if the row
                # survives the joins — exactly as without pushdown
                source, _, examined = self._scan(
                    scan, session, names, evaluator, refs, scan.filter,
                    keep_errors=ExecutionError, unordered=unordered,
                )
            if scan.path is not None:
                self.db.bump_planner_stat("batch_scans")
            if trace is not None:
                trace.record_scan(
                    scan, source.length, examined, perf_counter() - started
                )
            if position:
                relation = self._join(
                    relation, source, plan.joins[position - 1], names, evaluator
                )
            else:
                relation = source

        if stmt.where is not None and not ordered:
            select = self._selector(stmt.where, names, evaluator)
            relation = relation.take(select(relation))

        items = plan.items
        out_columns = plan.output_columns()
        set_op = stmt.set_op is not None
        # a set operation's ORDER BY sorts the combined rows, by output column
        targets, hidden = _order_targets(
            [] if ordered else stmt.order_by, len(items), plan.binding.order
        )
        # every select item and hidden key is a column from here on: rows
        # are built once, from the rows that survive DISTINCT and ORDER BY
        exprs = [item.expr for item in items] + hidden
        if plan.grouped:
            columns = self._aggregate(
                plan, exprs, relation, names, evaluator, run_subquery
            )
        else:
            columns = self._project(exprs, relation, names, evaluator)

        if stmt.distinct:
            columns = _gather(columns, _first_of_each(zip(*columns[: len(items)])))

        if set_op:
            kind = stmt.set_op[0]
            rhs_columns, rhs_values = self._run_plan(
                plan.set_op, session, outer, params, compiled
            )
            if len(rhs_columns) != len(out_columns):
                raise ExecutionError(
                    f"{kind} operands must have the same number of columns"
                )
            rows = self._apply_set_op(
                kind, list(zip(*columns)), list(zip(*rhs_values))
            )
            columns = [list(col) for col in zip(*rows)] or [[] for _ in items]

        if targets:
            # a key column of the block's rows (a group's first member's
            # under GROUP BY, not the NULL row of an empty group) keeps its
            # fact; the rows of a set operation are both operands'
            read = not set_op and (stmt.group_by or not plan.grouped)
            keys, reverse = _sort_keys([
                (
                    columns[position],
                    descending,
                    _column_fact(exprs[position], names, relation) if read else None,
                )
                for position, descending in targets
            ])
            columns = _gather(columns, self._ordered_indexes(keys, reverse, needed))
        columns = columns[: len(items)]
        if offset or limit is not None:
            end = None if limit is None else offset + limit
            columns = [col[offset:end] for col in columns]
        return out_columns, columns

    # ---------------------------------------------------------------- scan

    def _scan(
        self,
        scan: ScanPlan,
        session: "Session | None",
        names: Scope,
        evaluator: Evaluator,
        refs: "set[str] | None",
        predicate: ast.Expr | None,
        keep_errors=(),
        limit: int | None = None,
        unordered: bool = False,
    ) -> tuple[_Relation, list[int], int]:
        """The scan operator, for every :class:`ScanPlan` kind and for
        UPDATE/DELETE targets: apply the scan's own ``predicate`` to its
        source's one batch and keep that batch's lists, or one gather of
        them to the survivors, as the column store (a limit-bound path's
        later fetches are appended). Returns ``(relation, rids,
        examined)`` — ``rids`` of the surviving heap rows, ``examined``
        the rows consumed.

        ``names`` reads the predicate's names (its relation unset).
        Only columns named in ``refs`` are materialized (``None``: all).
        With a ``limit`` the scan stops at that many survivors — the early
        exit that makes an ordered ``ORDER BY ... LIMIT k`` O(k) instead
        of O(n log n). Rows past the exit are never evaluated, so a
        predicate whose error only a later row would trigger does not
        raise (the planner's error-surfacing contract), and they do not
        count as examined.
        """
        columns = scan.columns
        if refs is not None:
            columns = [c for c in columns if c.lower() in refs]
        if predicate is None:
            def select(chunk, limit):
                return range(chunk.length if limit is None else min(chunk.length, limit))
        else:
            select = self._selector(predicate, names, evaluator, keep_errors)
        binding = scan.binding
        store: "dict[str, list] | None" = None
        rids: list[int] = []
        facts: "dict[str, frozenset] | None" = None
        length = examined = 0
        # planned (and counted) even when LIMIT 0 leaves nothing to fetch
        batches = self._batches(scan, session, names, columns, unordered, limit)
        for batch in () if limit == 0 else batches:
            cut = batch.facts
            chunk = _Relation(
                {binding: batch.columns}, {binding: None}, batch.length,
                facts={binding: cut} if cut is not None else None,
            )
            keep = select(chunk, None if limit is None else limit - length)
            kept, kept_rids = batch.columns, batch.rids
            if len(keep) < batch.length:
                take = _gatherer(keep)
                # each list goes once gathered; by the batch's names (columns may repeat)
                kept = {name: take(kept.pop(name)) for name in list(kept)}
                kept_rids = None if kept_rids is None else take(kept_rids)
            if store is None:  # the first batch's lists are the scan's own
                store, rids, facts = kept, kept_rids or [], cut
            else:  # a later fetch of a limit-bound path
                for name, values in kept.items():
                    store[name].extend(values)
                rids.extend(kept_rids)
                facts = {name: fact | cut[name] for name, fact in facts.items()}
            length += len(keep)
            if length == limit:
                examined += keep[-1] + 1  # rows fetched past the exit don't count
                break
            examined += batch.length
        if store is None:  # nothing fetched: every fact holds of no rows
            store = {name: [] for name in columns}
            facts = dict.fromkeys(columns, frozenset())
        relation = _Relation(
            {binding: store}, {binding: None}, length,
            facts={binding: facts} if facts is not None else None,
        )
        return relation, rids, examined

    def _batches(
        self, scan: ScanPlan, session, names: Scope, columns, unordered, first
    ) -> "Iterator[RowBatch]":
        """The column batches of one planned source: a child block's
        result or a system view's rows transposed into one batch; the
        heap's one cut (a seq path) or one fetch of the path's rids in rid
        order (index order for an ``ordered`` path) — in doubling steps
        of at most ``batch_size`` only when a limit (``first``) may stop
        it early. Value lists are fresh — copies or gathers of the heap's columns,
        never those lists themselves — so the scan may keep them and
        in-statement mutations of the heap do not reach it. A derived
        table runs inside the statement's outer scope (``names.outer``),
        on its literal vector; a view on its own, with its body's
        literals: it never reads its caller's columns."""
        if scan.child is not None:
            if scan.kind == "view":
                _, values = self._run_plan(scan.child, session, None, (), names.compiled)
            else:
                _, values = self._run_plan(
                    scan.child, session, names.outer, names.params, names.compiled
                )
            # the child's output columns are fresh lists: the scan keeps them
            wanted = set(columns)
            store = {
                name: values[i] for i, name in enumerate(scan.columns) if name in wanted
            }
            return iter([RowBatch(None, store, _length(values))])
        if scan.path is None:  # observability system view
            _, rows = system_view_rows(self.db, scan.name)
            store = {name: [row.get(name) for row in rows] for name in columns}
            return iter([RowBatch(None, store, len(rows))])
        heap = scan.heap
        rids = self._path_rids(scan, names.params, unordered)
        if rids is None:
            return iter([heap.cut(columns)])
        if first is None:
            return iter([heap.fetch_batch(list(rids), columns)])

        def fetch():
            # fetches sized by what the statement still needs, then
            # doubling: a scan that exits early never reads a full batch
            size = self.db.planner_options["batch_size"]
            stream = iter(rids)
            count = min(first, size)
            while chunk := list(islice(stream, count)):
                yield heap.fetch_batch(chunk, columns)
                count = min(count * 2, size)

        return fetch()

    def _path_rids(self, scan: ScanPlan, params: tuple, unordered: bool = False):
        """Candidate rids of a planned base-table scan, in the order to
        fetch them (``None``: the whole heap in rid order), counting the
        access path in ``planner_stats``; the probe key, bounds and union
        members are the literal vector ``params``'s. Probed rids come back
        in rid order so the source feeds the pipeline exactly like a seq
        scan would — except when the statement's output provably ignores
        row order (``unordered``: pure COUNT aggregation), where the sort
        is skipped — and an ``ordered`` path yields them in index order.
        Every path is a pure reduction: callers re-apply the full WHERE."""
        index = scan.index
        self.db.bump_planner_stat(f"{scan.path.kind}_scans")
        if scan.path.kind == "seq":
            return None
        path, key = scan.access(params)
        rng = path.range
        bounds = () if rng is None else (rng.low, rng.high, rng.incl_low, rng.incl_high)
        if path.kind == "ordered":
            start, end = index.slice_bounds(path.prefix_values, *bounds)
            return index.ordered_rids(path.reverse, start, end, path.prefix_values)
        if path.kind == "index":
            rids = index.probe(key)
        elif path.kind == "range":
            rids = index.range_rids(path.prefix_values, *bounds)
        else:
            rids = self._union_rids(index, path.union)
        return rids if unordered else sorted(rids)

    @staticmethod
    def _union_rids(index, union) -> set[int]:
        """Deduplicated rids of every union member: hash probes for
        points on a hash index, equality-run / range slices on a btree.
        Over-approximation (ordering keys coalesce 1/1.0/TRUE) is fine —
        the full WHERE is re-applied to the candidates."""
        rids: set[int] = set()
        if index.kind == "hash":
            for value in union.points:
                rids |= index.probe((value,))
            return rids
        for value in union.points:
            rids.update(index.range_rids((value,)))
        for rng in union.ranges:
            rids.update(
                index.range_rids(
                    (), rng.low, rng.high, rng.incl_low, rng.incl_high
                )
            )
        return rids

    # ------------------------------------------------ columns and predicates

    def _compile(self, expr: ast.Expr, names: Scope, evaluator: Evaluator):
        """``expr`` as a column: ``column(relation)`` returns its value on
        every row of ``relation``, with the :class:`MiniDBError` of an
        erroring row deferred as a :class:`BatchError` in its place. The
        batch kernel :meth:`_prepare` compiled for ``expr``
        (``names.compiled``) computes it; where there is none the
        interpreter does, row by row through ``names`` pointed at the
        relation — the only way for subqueries and correlated names.
        Either kind reads the statement's literals from ``names.params``,
        and consumers see one contract either way.

        Only value errors are deferred. A :class:`TransactionError` — a
        subquery's lock timeout or deadlock — fails the statement at its
        row: the transaction is already aborted, and every later row
        would wait for the same lock again."""
        kernel = names.compiled[id(expr)]
        if kernel is not None:
            params = names.params
            return lambda relation: kernel(relation, params)

        def interpret(relation: _Relation) -> list:
            scope = names.at(relation)
            values: list = []
            for i in range(relation.length):
                relation.row = i
                try:
                    values.append(evaluator.evaluate(expr, scope))
                except TransactionError:
                    raise
                except MiniDBError as exc:
                    values.append(BatchError(exc))
            return values

        return interpret

    def _selector(
        self,
        predicate: ast.Expr,
        names: Scope,
        evaluator: Evaluator,
        keep_errors=(),
    ):
        """The one predicate seam: ``select(relation, limit=None)`` returns,
        in order, the row indexes of ``relation`` on which ``predicate`` is
        true (NULL counts as false), stopping at ``limit`` of them.

        The predicate becomes a column once per call — once per operator
        (:meth:`_compile`) — computed over chunks of at most
        ``batch_size`` rows. An evaluation error surfaces only when the
        walk reaches the erroring row, so a ``limit`` reached first hides
        it; an erroring row whose error is one of ``keep_errors`` is kept
        rather than raised.
        """
        column = self._compile(predicate, names, evaluator)
        size = self.db.planner_options["batch_size"]

        def select(relation: _Relation, limit: int | None = None) -> list[int]:
            kept: list[int] = []
            length = relation.length
            for start in range(0, length, size):
                chunk = relation
                if length > size:
                    chunk = relation.slice(start, min(start + size, length))
                values = column(chunk)
                if limit is None and in_class(
                    TRUTH_CLASS, values, vector_fact(chunk, values)
                ):
                    # no error to raise and nothing to stop at: keep the
                    # True elements in C
                    kept.extend(compress(range(start, start + len(values)), values))
                    continue
                for i, value in enumerate(values, start):
                    if value is not True:
                        if type(value) is not BatchError:
                            continue
                        if not isinstance(value.exc, keep_errors):
                            raise value.exc
                    kept.append(i)
                    if len(kept) == limit:
                        return kept
            return kept

        return select

    # ---------------------------------------------------------------- join

    def _join(
        self,
        left: _Relation,
        right: _Relation,
        plan: JoinPlan,
        names: Scope,
        evaluator: Evaluator,
    ) -> _Relation:
        """Fold ``right`` onto the joined relation using the planned
        strategy. Every strategy is candidate pairs (two parallel index
        vectors, in left-then-right order) narrowed by a predicate — hash
        probe + residual, all pairs + ON condition, all pairs — so no
        strategy copies a row per pair, and the predicate raises for the
        first erroring pair in that order."""
        trace = self.db.tracer.current()
        started = perf_counter() if trace is not None else 0.0
        if plan.strategy == "hash":
            self.db.bump_planner_stat("hash_joins")
            lefts, rights = self._hash_pairs(left, right, plan)
            predicate = plan.residual
        else:
            if plan.strategy == "nested-loop":
                self.db.bump_planner_stat("nested_loop_joins")
            lefts = [i for i in range(left.length) for _ in range(right.length)]
            rights = list(range(right.length)) * left.length
            predicate = plan.condition
        if predicate is not None:
            pairs = left.take(lefts).beside(right.take(rights))
            take = _gatherer(self._selector(predicate, names, evaluator)(pairs))
            lefts, rights = take(lefts), take(rights)

        # NULL extension is decided after the predicate: a left (right) row
        # none of whose pairs survived it counts as unmatched
        if plan.kind == "LEFT":
            unmatched = list(filterfalse(set(lefts).__contains__, range(left.length)))
            if unmatched:
                # both runs ascend by left position: one stable sort merges them
                lefts = lefts + unmatched
                rights = rights + [None] * len(unmatched)
                take = _gatherer(sorted(range(len(lefts)), key=lefts.__getitem__))
                lefts, rights = take(lefts), take(rights)
        elif plan.kind == "RIGHT":
            unmatched = list(filterfalse(set(rights).__contains__, range(right.length)))
            lefts = lefts + [None] * len(unmatched)
            rights = rights + unmatched
        result = left.take(lefts, nulls=plan.kind == "RIGHT").beside(
            right.take(rights, nulls=plan.kind == "LEFT")
        )
        if trace is not None:
            trace.record_join(plan, result.length, perf_counter() - started)
        return result

    @staticmethod
    def _hash_pairs(
        left: _Relation, right: _Relation, plan: JoinPlan
    ) -> tuple[list[int], list[int]]:
        """Equi-key candidate pairs in probe order: a table over the right
        side's keys, probed with each left row's. One key column is its
        own key, more key by tuple: a dict lookup and a tuple comparison
        both match by identity, then ``==``. Unique build keys (a PK/FK
        join) map to their index and pair in C, others to their index
        list. The NULL and NaN keys are dropped once, after the build —
        SQL equality is never true against NULL, and NaN would match a
        shared object by identity — so no probe key is tested."""
        rights = [right.column(plan.right_binding, k.right_column) for k in plan.keys]
        lefts = [left.column(k.left_binding, k.left_column) for k in plan.keys]
        single = len(plan.keys) == 1
        build = rights[0] if single else list(zip(*rights))
        table: dict = dict(zip(build, range(len(build))))
        unique = len(table) == len(build)
        if not unique:  # every build key finds itself, NaN by identity
            table = {key: [] for key in table}
            for index, key in enumerate(build):
                table[key].append(index)
        if single:  # NaN is the one value unequal to itself
            invalid = [None, *compress(table, map(ne, table, table))]
        else:
            invalid = [k for k in table if None in k or any(map(ne, k, k))]
        for key in invalid:
            table.pop(key, None)
        matches = list(map(table.get, lefts[0] if single else zip(*lefts)))
        found = list(map(is_not, matches, repeat(None)))
        positions = compress(range(len(matches)), found)
        if unique:
            return list(positions), list(compress(matches, found))
        paired_lefts: list[int] = []
        paired_rights: list[int] = []
        for position, bucket in zip(positions, compress(matches, found)):
            paired_lefts.extend(repeat(position, len(bucket)))
            paired_rights.extend(bucket)
        return paired_lefts, paired_rights

    # ------------------------------------------------------- group / project

    def _project(self, exprs, relation, names, evaluator) -> list[list]:
        """Ungrouped projection: the column of each of ``exprs`` (select
        items, then hidden ORDER BY keys) over the relation. No row is
        built here; before returning, the deferred error a row-at-a-time
        walk (rows outermost, positions innermost) would meet first is
        raised."""
        columns = [self._compile(expr, names, evaluator)(relation) for expr in exprs]
        _raise_first_batch_error(columns, relation)
        return [list(col) if type(col) is BoolVector else col for col in columns]

    def _aggregate(
        self, plan, exprs, relation, names, evaluator, run_subquery
    ) -> list[list]:
        """Grouped/aggregate evaluation: the column of each of ``exprs``
        (select items, then hidden ORDER BY keys) over the groups that
        pass HAVING.

        Group keys and aggregate arguments are columns of the relation;
        groups hold member *indexes* in first-member order, and each
        aggregate folds its argument column in input order (group, then
        aggregate, then member), so deferred errors surface at the point
        a row-at-a-time fold would raise and float sums are bit-identical
        across engines. One key column of one class groups by value in one
        dict pass; COUNT is the member count, and SUM/AVG/MIN/MAX/COUNT
        over an all-int/float argument column fold each member slice in C
        (:data:`_FOLDS`). HAVING and ``exprs`` read aggregates, so they
        are interpreted once per group (:class:`_AggregateEvaluator`)."""
        stmt = plan.stmt
        n = relation.length
        # group key -> member indexes, in first-member order
        groups: dict[Any, list[int]] = {}
        if stmt.group_by:
            keys = [self._compile(g, names, evaluator)(relation) for g in stmt.group_by]
            if len(keys) == 1 and _groups_by_value(keys[0], relation):
                # one key column of one class beside NULL: the value is as
                # good a key as (type name, value) — NaN and -0.0/0.0 hash
                # and compare alike either way, and None is its own group
                for i, v in enumerate(keys[0]):
                    members = groups.get(v)
                    if members is None:
                        groups[v] = [i]
                    else:
                        members.append(i)
            else:
                _raise_first_batch_error(keys, relation)
                for i, key in enumerate(map(_row_marker, zip(*keys))):
                    members = groups.get(key)
                    if members is None:
                        groups[key] = members = []
                    members.append(i)
        else:  # one group, present even over no rows
            groups[()] = list(range(n))

        agg_plans: list[tuple[str, Any]] = []
        for agg in plan.aggregates:
            star = bool(agg.args) and isinstance(agg.args[0], ast.Star)
            if agg.name == "COUNT" and (star or not agg.args):
                agg_plans.append(("count", None))
            elif not agg.args or star:
                agg_plans.append(("malformed", None))
            else:
                values = self._compile(agg.args[0], names, evaluator)(relation)
                fold = None if agg.distinct else _FOLDS.get(agg.name)
                if fold is not None and in_class(
                    FOLD_CLASS, values, vector_fact(relation, values)
                ):
                    agg_plans.append(("fold", (fold, values)))
                else:
                    agg_plans.append(("column", values))

        scope = names.at(relation)
        # a group of no rows (no GROUP BY, nothing matched) reads its
        # columns on a NULL row
        empty = names.at(relation.take([None], nulls=True))
        out_rows: list[tuple] = []
        for members in groups.values():
            computed: dict[int, Any] = {}
            take = None  # the members' gatherer, shared by every fold
            for agg, (kind, payload) in zip(plan.aggregates, agg_plans):
                if kind == "fold":
                    fold, values = payload
                    if take is None:
                        take = _gatherer(members)
                    computed[id(agg)] = fold(take(values))
                    continue
                if kind == "count" and not agg.distinct:
                    computed[id(agg)] = len(members)
                    continue
                acc = make_aggregate(agg.name, agg.distinct)
                if kind == "count":
                    for _ in members:
                        acc.add(1)
                elif kind == "malformed":
                    raise ExecutionError(
                        f"{agg.name}() requires an argument; only COUNT takes *"
                    )
                else:
                    for i in members:
                        v = payload[i]
                        if type(v) is BatchError:
                            raise v.exc
                        acc.add(v)
                computed[id(agg)] = acc.result()
            agg_eval = _AggregateEvaluator(run_subquery, computed)
            if members:
                relation.row = members[0]
                rep_scope = scope
            else:
                rep_scope = empty
            if stmt.having is not None and not agg_eval.evaluate_predicate(
                stmt.having, rep_scope
            ):
                continue
            out_rows.append(tuple(agg_eval.evaluate(expr, rep_scope) for expr in exprs))
        return [list(col) for col in zip(*out_rows)] or [[] for _ in exprs]

    def _ordered_indexes(self, keys: list, reverse: bool, needed: "int | None"):
        """Row indexes ordered by ``keys`` (stable: ties keep row order),
        only the first ``needed`` when that bounds the sort. Bounded top-N:
        ``heapq.nsmallest`` / ``nlargest`` with a key are documented
        equivalent to ``sorted(..., reverse=...)[:n]``, so this returns
        the same rows in the same order without sorting the discarded
        tail."""
        n = len(keys)
        if needed is not None and needed < n:
            self.db.bump_planner_stat("topn_limits")
            pick = heapq.nlargest if reverse else heapq.nsmallest
            return pick(needed, range(n), key=keys.__getitem__)
        return sorted(range(n), key=keys.__getitem__, reverse=reverse)

    # ---------------------------------------------------------------- EXPLAIN

    def _exec_ExplainStatement(
        self, stmt: ast.ExplainStatement, session: "Session", binding: Binding
    ) -> ResultSet:
        """Render the plan :meth:`_run_plan` would be handed. Plain EXPLAIN
        resolves tables straight from the catalog: no locks, nothing runs.
        ANALYZE plans like any execution, runs that very plan under a probe
        trace and annotates each node with its own actual rows and time."""
        if not stmt.analyze:
            lines = plan_select(
                stmt.select, self.db, self.db.catalog.table, binding
            ).lines()
        else:
            shape, params, template = self._statement(stmt)
            plan, compiled = self._plan_select(
                stmt, shape.select, session, binding, params, template
            )
            tracer = self.db.tracer
            probe = tracer.probe()
            started = perf_counter()
            try:
                _, values = self._run_plan(plan, session, None, params, compiled)
            finally:
                total_s = perf_counter() - started
                tracer.release(probe)
            lines = plan.lines(probe.actuals, params=params)
            lines.append(f"Result rows: {_length(values)}")
            lines.append(f"Execution time: {total_s * 1000.0:.3f} ms")
        return ResultSet(
            columns=["QUERY PLAN"], rows=[(line,) for line in lines], status="EXPLAIN"
        )

    @staticmethod
    def _apply_set_op(kind, left, right):
        """UNION / INTERSECT / EXCEPT: the first row of each distinct
        marker among the candidates, where INTERSECT keeps only markers on
        the right and EXCEPT only markers not on it."""
        if kind == "UNION ALL":
            return left + right
        if kind == "UNION":
            rows, wanted = left + right, None
        elif kind in ("INTERSECT", "EXCEPT"):
            rows, wanted = left, kind == "INTERSECT"
            right_markers = set(map(_row_marker, right))
        else:
            raise ExecutionError(f"unsupported set operation {kind}")
        seen: set = set()
        result = []
        for row in rows:
            marker = _row_marker(row)
            if marker in seen:
                continue
            if wanted is None or (marker in right_markers) == wanted:
                seen.add(marker)
                result.append(row)
        return result

    # ----------------------------------------------------------------- DML

    def _evaluator(self, session: "Session", binding: Binding) -> Evaluator:
        def run_subquery(sub: ast.SelectStatement, scope: Scope) -> list[tuple]:
            _, rows = self._run_select(sub, session, scope, binding)
            return rows

        return Evaluator(run_subquery)

    def _locked_table(
        self, session: "Session", name: str, mode: str
    ) -> TableSchema:
        """Acquire the table lock, then resolve the schema.

        Resolution must happen *after* the (name-keyed) lock is granted:
        a statement that blocked behind a concurrent DROP + CREATE of
        the same name must see the recreated schema, not the object it
        resolved before sleeping — constraint checks and column
        resolution against the stale schema would silently bypass the
        new table's contract. The pre-lock resolve only validates
        existence so an unknown table fails without touching the lock
        manager; a table dropped while we waited raises here, after the
        grant, like any other vanished relation.
        """
        schema = self.db.catalog.table(name)
        session.lock_table(schema.name, mode)
        return self.db.catalog.table(name)

    def _exec_InsertStatement(
        self, stmt: ast.InsertStatement, session: "Session", binding: Binding
    ) -> ResultSet:
        # DML takes an exclusive lock on its target and shared locks on
        # the tables its FK checks read, all held to transaction end
        schema = self._locked_table(session, stmt.table, "X")
        for fk in schema.foreign_keys:
            session.lock_table(fk.ref_table, "S")
        binding = self._current(stmt, binding)

        target_columns = stmt.columns or schema.column_names()
        for name in target_columns:
            schema.column(name)  # raises UnknownColumnError

        if stmt.select is not None:
            shape, params, template = self._statement(stmt)
            plan, compiled = self._plan_select(
                stmt, shape.select, session, binding, params, template
            )
            binding = plan.binding
            _, values = self._run_plan(plan, session, None, params, compiled)
            value_rows = list(zip(*values))
        evaluator = self._evaluator(session, binding)
        if stmt.select is None:
            values_scope = Scope(binding.slots)
            value_rows = [
                tuple(evaluator.evaluate(expr, values_scope) for expr in row)
                for row in stmt.rows or []
            ]

        inserted = 0
        table_key = schema.name.lower()
        for values in value_rows:
            if len(values) != len(target_columns):
                raise ExecutionError(
                    f"INSERT has {len(values)} values but {len(target_columns)} "
                    "target columns"
                )
            row = self._build_row(schema, dict(zip(target_columns, values)), evaluator)
            self._check_row_constraints(schema, stmt.table, row, evaluator, binding)
            session.tx.apply(
                self.db,
                {"op": "insert", "table": table_key, "rid": None, "row": row},
            )
            self._check_foreign_keys(schema, row)
            inserted += 1
        return ResultSet(rowcount=inserted, status=f"INSERT {inserted}")

    def _build_row(
        self, schema: TableSchema, provided: dict[str, Any], evaluator: Evaluator
    ) -> Row:
        provided_lower = {k.lower(): v for k, v in provided.items()}
        row: Row = {}
        for column in schema.columns:
            key = column.name.lower()
            if key in provided_lower:
                row[column.name] = coerce(
                    provided_lower[key], column.ctype, column.name
                )
            elif column.has_default:
                default = column.default
                if isinstance(default, ast.Expr):
                    default = evaluator.evaluate(default, Scope({}))
                row[column.name] = coerce(default, column.ctype, column.name)
            else:
                row[column.name] = None
        return row

    def _check_row_constraints(
        self,
        schema: TableSchema,
        table: str,
        row: Row,
        evaluator: Evaluator,
        binding: Binding,
    ) -> None:
        """Raise unless ``row`` meets ``schema``'s NOT NULL and CHECK
        constraints; the CHECKs read the row as ``table``'s, through the
        slots the statement's ``binding`` gave them."""
        for column in schema.columns:
            if column.not_null and row.get(column.name) is None:
                raise NotNullViolation(
                    f"null value in column {column.name!r} of relation "
                    f"{schema.name!r} violates not-null constraint"
                )
        if schema.checks:
            store = {name: [value] for name, value in row.items()}
            scope = Scope(binding.slots, _Relation({table: store}, {table: None}, 1))
            for index, check in enumerate(schema.checks):
                value = evaluator.evaluate(check, scope)
                if value is False:
                    source = (
                        schema.check_sources[index]
                        if index < len(schema.check_sources)
                        else "<check>"
                    )
                    raise CheckViolation(
                        f"new row for relation {schema.name!r} violates check "
                        f"constraint ({source})"
                    )

    def _check_foreign_keys(self, schema: TableSchema, row: Row) -> None:
        """Raise unless each non-NULL foreign-key value of ``row`` is
        present in the table it references. Statements call this once the
        row is written — PostgreSQL checks after the row is in — so a row
        of a self-referencing table may reference itself."""
        for fk in schema.foreign_keys:
            values = tuple(row.get(c) for c in fk.columns)
            if any(v is None for v in values):
                continue  # SQL: NULL FK values pass
            if self._key_lookup(self.db.heap(fk.ref_table), fk.ref_columns)(values):
                continue
            raise ForeignKeyViolation(
                f"insert or update violates foreign key constraint: "
                f"({', '.join(fk.columns)})={values!r} is not present in "
                f"{fk.ref_table}({', '.join(fk.ref_columns)})"
            )

    def _referencing_check(
        self, schema: TableSchema
    ) -> "Callable[[list[Row]], str | None]":
        """``violation(old_rows)``: if rows reference one of ``old_rows``,
        a message for the first that is, else ``None``. Statements ask
        once the rows are written. One lookup per foreign key into
        ``schema``, built here once per statement however many rows — or
        calls — ask, except a self-reference's: the statement writes the
        rows it reads, so that one reads them afresh on every call."""
        lookups = []
        for other_name in self.db.catalog.referencing_tables(schema.name):
            other = self.db.catalog.table(other_name)
            other_heap = self.db.heap(other.name)
            for fk in other.foreign_keys:
                if fk.ref_table.lower() != schema.name.lower():
                    continue
                present = self._key_lookup(other_heap, fk.columns)
                if other_name.lower() == schema.name.lower():
                    present = lambda key, heap=other_heap, columns=fk.columns: (
                        self._key_lookup(heap, columns)(key)
                    )
                lookups.append((other, fk.ref_columns, present))

        def violation(old_rows: "list[Row]") -> str | None:
            for old_row in old_rows:
                for other, ref_columns, present in lookups:
                    key = tuple(old_row.get(c) for c in ref_columns)
                    if not any(v is None for v in key) and present(key):
                        return (
                            f"row in {schema.name!r} is still referenced by "
                            f"table {other.name!r}"
                        )
            return None

        return violation

    @staticmethod
    def _key_lookup(heap: HeapTable, columns) -> "Callable[[tuple], bool]":
        """``present(key)``: whether some row of ``heap`` holds the
        NULL-free ``key`` in ``columns`` — either side of a foreign-key
        check. An index probe when one covers exactly those columns; else
        the keys of those columns alone, read once on first use."""
        index = heap.find_index(tuple(columns))
        if index is not None:
            return lambda key: bool(index.probe(key))
        keys: "set[tuple] | None" = None

        def present(key: tuple) -> bool:
            nonlocal keys
            if keys is None:
                keys = set(zip(*[heap.column_values(c) for c in columns]))
            return key in keys

        return present

    def _exec_UpdateStatement(
        self, stmt: ast.UpdateStatement, session: "Session", binding: Binding
    ) -> ResultSet:
        schema = self._locked_table(session, stmt.table, "X")
        for fk in schema.foreign_keys:
            session.lock_table(fk.ref_table, "S")  # forward FK checks read these
        for other in self.db.catalog.referencing_tables(schema.name):
            session.lock_table(other, "S")  # FK back-reference checks read these
        binding = self._current(stmt, binding)
        evaluator = self._evaluator(session, binding)
        shape, params, template = self._statement(stmt)
        assignments = []
        for name, expr in shape.assignments:
            column = schema.column(name)
            assignments.append((column, expr))

        referenced_key_columns = {
            c.lower()
            for other_name in self.db.catalog.referencing_tables(schema.name)
            for fk in self.db.catalog.table(other_name).foreign_keys
            if fk.ref_table.lower() == schema.name.lower()
            for c in fk.ref_columns
        }

        targets, relation, scope = self._dml_targets(
            schema, stmt, shape.where, evaluator, binding, params, template,
            [expr for _, expr in assignments],
        )
        referencing = (
            self._referencing_check(schema) if referenced_key_columns else None
        )

        updated = 0
        table_key = schema.name.lower()
        for position, (rid, old_row) in enumerate(targets):
            relation.row = position  # SET reads the target row
            new_row = dict(old_row)
            for column, expr in assignments:
                new_row[column.name] = coerce(
                    evaluator.evaluate(expr, scope), column.ctype, column.name
                )
            self._check_row_constraints(
                schema, stmt.table, new_row, evaluator, binding
            )
            session.tx.apply(
                self.db,
                {"op": "update", "table": table_key, "rid": rid, "row": new_row},
            )
            self._check_foreign_keys(schema, new_row)
            changed_ref_keys = any(
                old_row.get(c) != new_row.get(c)
                for c in old_row
                if c.lower() in referenced_key_columns
            )
            if changed_ref_keys:
                message = referencing([old_row])
                if message:
                    raise ForeignKeyViolation(message)
            updated += 1
        return ResultSet(rowcount=updated, status=f"UPDATE {updated}")

    def _exec_DeleteStatement(
        self, stmt: ast.DeleteStatement, session: "Session", binding: Binding
    ) -> ResultSet:
        schema = self._locked_table(session, stmt.table, "X")
        for other in self.db.catalog.referencing_tables(schema.name):
            session.lock_table(other, "S")  # FK back-reference checks read these
        binding = self._current(stmt, binding)
        evaluator = self._evaluator(session, binding)
        shape, params, template = self._statement(stmt)

        targets, _, _ = self._dml_targets(
            schema, stmt, shape.where, evaluator, binding, params, template
        )

        table_key = schema.name.lower()
        for rid, _row in targets:
            session.tx.apply(
                self.db, {"op": "delete", "table": table_key, "rid": rid}
            )
        # rows of a self-referencing table that reference each other may go
        # together: the check reads what the statement left
        message = self._referencing_check(schema)([row for _rid, row in targets])
        if message:
            raise ForeignKeyViolation(message)
        return ResultSet(rowcount=len(targets), status=f"DELETE {len(targets)}")

    def _dml_targets(
        self,
        schema: TableSchema,
        stmt: "ast.UpdateStatement | ast.DeleteStatement",
        where: ast.Expr | None,
        evaluator: Evaluator,
        binding: Binding,
        params: tuple,
        template: Any,
        reads: list = (),
    ) -> "tuple[list[tuple[int, Row]], _Relation, Scope]":
        """Resolve UPDATE/DELETE target rows through access-path planning.

        The same scan planner that serves SELECT sources narrows the
        candidate set here — a covering index probe, union or sorted-index
        range slice instead of the unconditional heap scan. Candidates
        always get the *full* WHERE re-applied (compiled when possible),
        and targets come back in rid order, the order the heap scan
        produced — so undo logs, WAL records, and constraint-error
        attribution are byte-identical to the seq-scan plan. The target
        scan and its WHERE kernel are ``template``'s prepared plan when
        one is current (the statement already holds its X lock), read
        with the literal vector ``params``.

        Also returns the target scan's relation, holding the columns
        ``where`` and ``reads`` name, and the scope the statement's names
        read it through: target *i* is read with ``relation.row = i``.
        """
        scan, compiled = self._target_scan(
            schema, stmt, where, binding, params, template, reads
        )
        names = Scope(binding.slots, None, None, params, compiled)
        relation, rids, _ = self._scan(
            scan, None, names, evaluator, compiled[id(scan)], where
        )
        heap = scan.heap
        targets = [(rid, heap.get(rid)) for rid in rids]
        return targets, relation, names.at(relation)

    def _target_scan(
        self,
        schema: TableSchema,
        stmt: "ast.UpdateStatement | ast.DeleteStatement",
        where: ast.Expr | None,
        binding: Binding,
        params: tuple,
        template: Any,
        reads: list,
    ) -> "tuple[ScanPlan, Mapping]":
        """The UPDATE/DELETE target scan and what was compiled for it (its
        WHERE kernel, the columns it reads for WHERE and ``reads``):
        ``template``'s prepared plan when it is current (the statement
        holds its X lock already), else planned here — and kept when
        generic."""
        entry = None if template is None else self._reuse(template, None)
        if entry is not None:
            count_plan("hits")
            return entry.plan, entry.compiled
        scan = plan_table_scan(self.db, schema, stmt.table, where, binding.slots, None, params)
        return scan, self._prepare(scan, binding, template, reads=reads)

    # ----------------------------------------------------------------- DDL

    def _exec_CreateTableStatement(
        self, stmt: ast.CreateTableStatement, session: "Session", binding: Binding
    ) -> ResultSet:
        catalog = self.db.catalog
        # DDL takes an exclusive lock on the object name — for CREATE this
        # also serializes two sessions racing to create the same table
        session.lock_table(stmt.table, "X")
        if stmt.if_not_exists and catalog.has_object(stmt.table):
            return ResultSet(status="CREATE TABLE (exists)")

        columns: list[Column] = []
        primary_key = list(stmt.primary_key)
        uniques = list(stmt.uniques)
        foreign_keys: list[ForeignKey] = []
        # (columns, referenced table, referenced columns, how much of the
        # referenced key stands in for absent ones), resolved once the
        # schema exists: a table may reference itself
        references: list[tuple[tuple, str, tuple, "int | None"]] = []
        checks: list[ast.Expr] = list(stmt.checks)
        check_sources = [expr_to_sql(check) for check in stmt.checks]
        evaluator = self._evaluator(session, binding)
        empty_scope = Scope(binding.slots)

        for cdef in stmt.columns:
            ctype = ColumnType.parse(cdef.declared_type)
            default_value = None
            has_default = cdef.default is not None
            if has_default:
                default_value = evaluator.evaluate(cdef.default, empty_scope)
            column = Column(
                cdef.name,
                ctype,
                not_null=cdef.not_null or cdef.primary_key,
                default=default_value,
                has_default=has_default,
            )
            columns.append(column)
            if cdef.primary_key:
                primary_key.append(cdef.name)
            if cdef.unique:
                uniques.append((cdef.name,))
            if cdef.check is not None:
                checks.append(cdef.check)
                check_sources.append(expr_to_sql(cdef.check))
            if cdef.references is not None:
                ref_table, ref_column = cdef.references
                # a column-level REFERENCES without a column names the
                # first column of the referenced table's key
                references.append(
                    ((cdef.name,), ref_table, (ref_column,) if ref_column else (), 1)
                )
        references.extend(
            (tuple(fkdef.columns), fkdef.ref_table, tuple(fkdef.ref_columns), None)
            for fkdef in stmt.foreign_keys
        )

        schema = TableSchema(
            name=stmt.table,
            columns=columns,
            foreign_keys=foreign_keys,
            checks=checks,
            check_sources=check_sources,
        )

        def stored(table: TableSchema, names) -> tuple[str, ...]:
            # key lists keep the table's spelling of each column (raising for
            # an unknown one): the WAL record and every lookup by name agree
            return tuple(table.column(name).name for name in names)

        schema.primary_key = stored(schema, primary_key)
        schema.uniques = [stored(schema, unique) for unique in uniques]
        for name in schema.primary_key:
            schema.column(name).not_null = True
        for fk_columns, ref_table, ref_columns, key_part in references:
            target = (
                schema
                if ref_table.lower() == schema.name.lower()
                else catalog.table(ref_table)
            )
            ref_columns = stored(target, ref_columns) or target.primary_key[:key_part]
            if not ref_columns:
                raise ExecutionError(f"referenced table {ref_table!r} has no primary key")
            foreign_keys.append(
                ForeignKey(stored(schema, fk_columns), target.name, ref_columns)
            )

        unique_keys = [
            (f"uq_{schema.name}_{number}", unique)
            for number, unique in enumerate(schema.uniques)
        ]
        if schema.primary_key:
            unique_keys.insert(0, (f"pk_{schema.name}", schema.primary_key))
        session.tx.apply(
            self.db,
            {
                "op": "create_table",
                "table": schema.name.lower(),
                "schema": dump_table_schema(schema),
                "indexes": [
                    {"name": name, "columns": list(columns), "unique": True,
                     "kind": "hash"}
                    for name, columns in unique_keys
                ],
            },
        )
        return ResultSet(status="CREATE TABLE")

    def _exec_DropTableStatement(
        self, stmt: ast.DropTableStatement, session: "Session", binding: Binding
    ) -> ResultSet:
        catalog = self.db.catalog
        for name in stmt.tables:
            session.lock_table(name, "X")
        for name in stmt.tables:
            if not catalog.has_object(name):
                if stmt.if_exists:
                    continue
                raise UnknownTableError(f"relation {name!r} does not exist")
            if catalog.has_view(name):
                session.tx.apply(
                    self.db, {"op": "drop_view", "view": catalog.view(name).name}
                )
                continue
            referencing = [
                t
                for t in catalog.referencing_tables(name)
                if t.lower() != name.lower()
            ]
            if referencing and not stmt.cascade:
                raise ForeignKeyViolation(
                    f"cannot drop table {name!r}: referenced by "
                    f"{', '.join(referencing)} (use CASCADE)"
                )
            to_drop = [name] + (referencing if stmt.cascade else [])
            for table_name in to_drop:
                if not catalog.has_table(table_name):
                    continue
                session.tx.apply(
                    self.db,
                    {"op": "drop_table", "table": table_name.lower()},
                )
        return ResultSet(status="DROP TABLE")

    def _exec_AlterTableStatement(
        self, stmt: ast.AlterTableStatement, session: "Session", binding: Binding
    ) -> ResultSet:
        session.lock_table(stmt.table, "X")
        schema = self.db.catalog.table(stmt.table)
        table_key = schema.name.lower()
        if stmt.action == "ADD_COLUMN":
            cdef = stmt.column
            assert cdef is not None
            if schema.has_column(cdef.name):
                raise DuplicateColumnError(
                    f"column {cdef.name!r} already exists in {schema.name!r}"
                )
            ctype = ColumnType.parse(cdef.declared_type)
            evaluator = self._evaluator(session, binding)
            default = (
                evaluator.evaluate(cdef.default, Scope(binding.slots))
                if cdef.default is not None
                else None
            )
            if cdef.not_null and default is None and len(self.db.heap(schema.name)):
                raise NotNullViolation(
                    f"cannot add NOT NULL column {cdef.name!r} without a default "
                    "to a non-empty table"
                )
            column = Column(
                cdef.name,
                ctype,
                not_null=cdef.not_null,
                default=default,
                has_default=cdef.default is not None,
            )
            record = {
                "op": "add_column",
                "table": table_key,
                "column": dump_column(column),
                "fill": default,
            }
        elif stmt.action == "DROP_COLUMN":
            column = schema.column(stmt.old_name or "")
            if column.name in schema.primary_key:
                raise ExecutionError("cannot drop a primary key column")
            dependent = self._column_dependent(schema, column.name)
            if dependent is not None:
                raise ExecutionError(
                    f"cannot drop column {column.name!r} of table "
                    f"{schema.name!r}: {dependent} depends on it"
                )
            record = {"op": "drop_column", "table": table_key, "column": column.name}
        elif stmt.action == "RENAME_COLUMN":
            column = schema.column(stmt.old_name or "")
            if schema.has_column(stmt.new_name or ""):
                raise DuplicateColumnError(f"column {stmt.new_name!r} already exists")
            record = {
                "op": "rename_column",
                "table": table_key,
                "old": column.name,
                "new": stmt.new_name or "",
            }
        elif stmt.action == "RENAME_TABLE":
            # the new name too: a GRANT or REVOKE naming it waits for this
            # transaction, so replay meets the two in the order they ran
            session.lock_table(stmt.new_name or "", "X")
            record = {
                "op": "rename_table",
                "old": schema.name,
                "new": stmt.new_name or "",
            }
        else:
            raise ExecutionError(f"unsupported ALTER TABLE action {stmt.action}")
        session.tx.apply(self.db, record)
        return ResultSet(status="ALTER TABLE")

    def _column_dependent(self, schema: TableSchema, name: str) -> "str | None":
        """The first index or constraint naming column ``name`` of
        ``schema``, described for an error message, or ``None``. Dropping
        the column would leave it stale (index entries, a UNIQUE key) or
        unusable (a CHECK or foreign key naming a column that is gone), so
        DROP COLUMN refuses where PostgreSQL would drop it too."""
        lowered = name.lower()

        def names(columns) -> bool:
            return any(c.lower() == lowered for c in columns)

        for unique in schema.uniques:
            if names(unique):
                return f"constraint UNIQUE ({', '.join(unique)})"
        for fk in schema.foreign_keys:
            if names(fk.columns):
                return f"constraint {fk.describe()}"
        for other_name in self.db.catalog.referencing_tables(schema.name):
            for fk in self.db.catalog.table(other_name).foreign_keys:
                if fk.ref_table.lower() == schema.name.lower() and names(fk.ref_columns):
                    return f"constraint {fk.describe()} of table {other_name!r}"
        for check in schema.checks:
            refs = _referenced_names([check])
            if refs is None or lowered in refs:
                return f"constraint CHECK ({expr_to_sql(check)})"
        for index in self.db.heap(schema.name).indexes.values():
            if names(index.columns):
                return f"index {index.name!r}"
        return None

    def _exec_CreateIndexStatement(
        self, stmt: ast.CreateIndexStatement, session: "Session", binding: Binding
    ) -> ResultSet:
        catalog = self.db.catalog
        # lock before the IF NOT EXISTS probe: racing creators on the
        # same table serialize here, so the loser sees "(exists)" instead
        # of a duplicate-index error (and the schema is the post-lock
        # one). Creators on *different* tables hold non-conflicting
        # locks — their name race is settled by the change's atomic
        # check-then-set, caught below.
        schema = self._locked_table(session, stmt.table, "X")
        if stmt.if_not_exists and stmt.name.lower() in catalog.indexes:
            return ResultSet(status="CREATE INDEX (exists)")
        for name in stmt.columns:
            schema.column(name)
        try:
            session.tx.apply(
                self.db,
                {
                    "op": "create_index",
                    "table": schema.name.lower(),
                    "index": {
                        "name": stmt.name,
                        "columns": list(stmt.columns),
                        "unique": stmt.unique,
                        "kind": (
                            "btree" if (stmt.using or "").upper() == "BTREE"
                            else "hash"
                        ),
                    },
                },
            )
        except DuplicateObjectError:
            if stmt.if_not_exists:
                # lost a cross-table name race after the probe: same
                # contract as losing the probe itself
                return ResultSet(status="CREATE INDEX (exists)")
            raise
        return ResultSet(status="CREATE INDEX")

    def _exec_DropIndexStatement(
        self, stmt: ast.DropIndexStatement, session: "Session", binding: Binding
    ) -> ResultSet:
        catalog = self.db.catalog
        # existence (and the owning table) must hold *after* the lock
        # grant: a DROP that blocked behind a concurrent drop of the same
        # index would otherwise crash on remove; loop in case the index
        # was re-created on a different table while we waited
        while True:
            if stmt.name.lower() not in catalog.indexes:
                if stmt.if_exists:
                    return ResultSet(status="DROP INDEX (absent)")
                raise UnknownTableError(f"index {stmt.name!r} does not exist")
            table = catalog.index(stmt.name).table
            session.lock_table(table, "X")
            if (
                stmt.name.lower() in catalog.indexes
                and catalog.index(stmt.name).table == table
            ):
                break
        session.tx.apply(
            self.db,
            {
                "op": "drop_index",
                "table": table.lower(),
                "index": catalog.index(stmt.name).name,
            },
        )
        return ResultSet(status="DROP INDEX")

    def _exec_AnalyzeStatement(
        self, stmt: ast.AnalyzeStatement, session: "Session", binding: Binding
    ) -> ResultSet:
        catalog = self.db.catalog
        if stmt.table is not None:
            # resolve through the lock so the scan sees a settled table
            names = [self._locked_table(session, stmt.table, "S").name]
        else:
            names = sorted(schema.name for schema in catalog.tables.values())
        analyzed = 0
        for name in names:
            try:
                schema = self._locked_table(session, name, "S")
            except UnknownTableError:
                if stmt.table is None:
                    continue  # dropped while a bare ANALYZE waited; skip
                raise
            stats = build_table_statistics(schema, self.db.heap(schema.name))
            # the *computed* payload is the change, so replay restores the
            # exact statistics without rescanning heaps
            session.tx.apply(
                self.db,
                {
                    "op": "analyze",
                    "table": schema.name.lower(),
                    "stats": stats.to_payload(),
                },
            )
            analyzed += 1
        return ResultSet(status=f"ANALYZE {analyzed}")

    def _exec_CreateViewStatement(
        self, stmt: ast.CreateViewStatement, session: "Session", binding: Binding
    ) -> ResultSet:
        session.lock_table(stmt.name, "X")
        # the rendered definition round-trips through the parser, which is
        # both the catalog's human-readable DDL and the WAL representation
        session.tx.apply(
            self.db,
            {
                "op": "create_view",
                "view": stmt.name,
                "sql": select_to_sql(stmt.select),
                "or_replace": stmt.or_replace,
            },
        )
        return ResultSet(status="CREATE VIEW")

    def _exec_DropViewStatement(
        self, stmt: ast.DropViewStatement, session: "Session", binding: Binding
    ) -> ResultSet:
        for name in stmt.names:
            session.lock_table(name, "X")
        for name in stmt.names:
            if not self.db.catalog.has_view(name):
                if stmt.if_exists:
                    continue
                raise UnknownTableError(f"view {name!r} does not exist")
            session.tx.apply(
                self.db, {"op": "drop_view", "view": self.db.catalog.view(name).name}
            )
        return ResultSet(status="DROP VIEW")


class _Reversed:
    """Wrapper inverting comparison order, for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value
