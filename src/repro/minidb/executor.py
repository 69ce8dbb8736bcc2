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

Every SELECT block is planned exactly once, by
:func:`repro.minidb.planner.plan_select`, and this module only *consumes*
the :class:`~repro.minidb.planner.SelectPlan` it is handed: access paths,
the index and key to probe, pushed-down filters and join strategies are
all read off plan nodes (``EXPLAIN`` renders the same
value; tracer events and ``EXPLAIN ANALYZE`` actuals are keyed on the
node objects). UPDATE/DELETE resolve their target rows through the same
scan planner. A block is planned only after the S locks on its base
tables are granted (:meth:`Executor._plan_select`).

One pipeline runs every planned block — single table, join, view,
derived table or system view alike — as an operator sequence over one
columnar value, the :class:`_Relation` (per binding a column store of the
statically referenced columns plus a pick vector of row indexes into it):

* **scan** (:meth:`Executor._scan`) — one operator for every
  :class:`~repro.minidb.planner.ScanPlan` kind: heap batches through the
  planned access path in rid order, or in index order for an ``ordered``
  path; a child block's result or a system view's rows transposed. The
  scan applies its *own* predicate batch by batch: the pushed-down
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
  OFFSET/LIMIT.

There are two expression engines (:mod:`repro.minidb.expressions`): batch
kernels (:func:`~repro.minidb.expressions.compile_batch_expr`), which read
``relation.column(binding, name)``, and the AST interpreter — the
reference, and the only path for subquery-bearing or correlated
expressions — which reads the same relation through a per-row scope
(:meth:`_ScopeLayout.scope`). Every predicate (scan, join, WHERE, DML
targets) goes through one seam, :meth:`Executor._selector`: compile once
per operator, evaluate chunks of at most ``batch_size`` rows, keep what is
``True``, and raise a deferred error only when the walk reaches its row;
projection, group keys and aggregate arguments compile per expression and
fall back to the interpreter per row. Like the kernels' typed paths
(:mod:`repro.minidb.expressions`), the selector, ungrouped ORDER BY /
top-N and GROUP BY run in C on a vector whose values all lie in one class
where the per-row code provably returns the same thing, and per row on
any other. Correlated subqueries are supported via scope chaining.

``db.planner_options`` keeps the alternatives that are the only path for
some input and the reference for the rest (``enable_index_scan``,
``enable_topn``, ``enable_hash_join``, ``enable_compiled_predicates`` +
``batch_size``: the interpreter at ``batch_size=1`` is the reference leg
of the equivalence suites); ``db.planner_stats`` counts what actually ran.
"""

from __future__ import annotations

import heapq
from functools import reduce
from itertools import compress, islice
from operator import add, ne
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterator

from ..obs.views import system_view_rows
from . import ast_nodes as ast
from .batch import DEFAULT_BATCH_SIZE, BatchError, RowBatch
from .catalog import Column, ForeignKey, TableSchema
from .errors import (
    CheckViolation,
    DuplicateObjectError,
    ExecutionError,
    ForeignKeyViolation,
    NotNullViolation,
    SQLSyntaxError,
    UnknownColumnError,
    UnknownTableError,
)
from .expressions import (
    FOLD_CLASS,
    GROUP_CLASS,
    SORT_NUMBER_CLASS,
    TEXT_CLASS,
    TRUTH_CLASS,
    CannotCompile,
    Evaluator,
    Scope,
    batch_raiser,
    compile_batch_expr,
)
from .functions import AGGREGATE_NAMES, make_aggregate
from .planner import (
    JoinPlan,
    ScanPlan,
    SelectPlan,
    expand_items,
    item_name,
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


def _compose(pick, rows):
    """``pick`` restricted to ``rows`` (``None``: a NULL-extended row)."""
    if pick is None:
        return rows
    return [None if i is None else pick[i] for i in rows]


class _Relation:
    """The value every SELECT operator consumes and produces.

    Per binding a column store (``stores[binding]``: column name -> value
    list, holding only the statically referenced columns) plus a pick
    vector of row indexes into it (``None`` entry: the row is
    NULL-extended on that binding; ``None`` vector: row *i* of the
    relation is row *i* of the store). Filters and joins only rewrite
    pick vectors; ``column`` gathers a column's values on first use,
    which is all a compiled kernel ever asks for. ``row`` is the cursor of
    the per-row scope (:meth:`_ScopeLayout.scope`) the interpreter
    fallback reads through.
    """

    __slots__ = ("stores", "picks", "length", "row", "_columns")

    def __init__(self, stores: dict, picks: dict, length: int):
        self.stores = stores
        self.picks = picks
        self.length = length
        self.row = 0
        self._columns: dict[tuple[str, str], list] = {}

    def column(self, binding: str, name: str) -> list:
        col = self._columns.get((binding, name))
        if col is None:
            stored = self.stores[binding][name]
            pick = self.picks[binding]
            if pick is None:
                col = stored
            elif type(pick) is range:
                col = stored[pick.start : pick.stop]
            else:
                col = [None if i is None else stored[i] for i in pick]
            self._columns[(binding, name)] = col
        return col

    def take(self, rows) -> "_Relation":
        """The relation of this one's ``rows``, in that order."""
        picks = {b: _compose(pick, rows) for b, pick in self.picks.items()}
        return _Relation(self.stores, picks, len(rows))

    def slice(self, start: int, stop: int) -> "_Relation":
        picks = {
            b: range(start, stop) if pick is None else pick[start:stop]
            for b, pick in self.picks.items()
        }
        return _Relation(self.stores, picks, stop - start)

    def beside(self, other: "_Relation") -> "_Relation":
        """Row *i* of this relation paired with row *i* of ``other``."""
        return _Relation(
            {**self.stores, **other.stores},
            {**self.picks, **other.picks},
            self.length,
        )


class _RowView:
    """Lazy name->value view of the cursor row of a relation.

    Implements just the mapping surface :class:`Scope` touches
    (``in`` / ``[]``), resolving each lookup through ``names`` as
    ``name -> (binding, column)`` and reading that column at
    ``relation.row``.
    """

    __slots__ = ("_names", "_relation")

    def __init__(self, names: dict[str, tuple[str, str]], relation: _Relation):
        self._names = names
        self._relation = relation

    def __contains__(self, key: str) -> bool:
        return key in self._names

    def __getitem__(self, key: str) -> Any:
        relation = self._relation
        return relation.column(*self._names[key])[relation.row]


class _ScopeLayout:
    """Precomputed name resolution for a set of sources (anything with
    ``binding`` and ``columns`` — plan scan nodes).

    The maps are built once per relation shape and serve both engines:
    :meth:`resolve` turns a column reference into a direct column read at
    kernel-compile time, :meth:`scope` is the interpreter's per-row scope
    — one object per relation, re-pointed by moving ``relation.row``. A
    name a source exposes twice (``SELECT id, a AS id``) is ambiguous
    qualified or not: it must never silently read one of the two.
    """

    __slots__ = ("outer", "ambiguous", "_qualified", "_unqualified")

    def __init__(self, sources: list, outer: Scope | None):
        qualified: dict[str, tuple[str, str]] = {}
        by_name: dict[str, list[tuple[str, str]]] = {}
        ambiguous: set[str] = set()
        for source in sources:
            binding = source.binding
            for col in source.columns:
                key = f"{binding.lower()}.{col.lower()}"
                if key in qualified:
                    ambiguous.add(key)
                qualified[key] = (binding, col)
                by_name.setdefault(col.lower(), []).append((binding, col))
        ambiguous.update(name for name, refs in by_name.items() if len(refs) > 1)
        self.outer = outer
        self.ambiguous = frozenset(ambiguous)
        self._qualified = qualified
        self._unqualified = {
            name: refs[0] for name, refs in by_name.items() if len(refs) == 1
        }

    def scope(self, relation: _Relation) -> Scope:
        return Scope(
            _RowView(self._qualified, relation),
            _RowView(self._unqualified, relation),
            self.ambiguous,
            self.outer,
        )

    def resolve(self, ref: ast.ColumnRef):
        """Column resolver for :func:`compile_batch_expr`: the returned
        accessor reads the addressed column of a relation directly. Names
        the layout cannot resolve compile to columns of *deferred* errors
        (:func:`batch_raiser`) carrying the interpreter's exact error: a
        short-circuiting AND may never consume those elements, and "no
        rows evaluated, no error" must hold. The exception is a layout
        with an outer scope: there the name may be a correlated reference,
        so compilation bails to the interpreter via
        :class:`CannotCompile`."""
        name = ref.name.lower()
        key = f"{ref.table.lower()}.{name}" if ref.table is not None else name
        if key in self.ambiguous:
            return batch_raiser(
                UnknownColumnError(f"column reference {ref.name!r} is ambiguous")
            )
        names = self._qualified if ref.table is not None else self._unqualified
        target = names.get(key)
        if target is None:
            if self.outer is not None:
                raise CannotCompile
            return batch_raiser(UnknownColumnError(f"column {ref} does not exist"))
        binding, column = target
        return lambda relation: relation.column(binding, column)


def _referenced_names(exprs: list) -> "set[str] | None":
    """Lowercased column names ``exprs`` can touch, or ``None`` when the
    set is not statically determinable (stars, subqueries) — a scan then
    materializes every column, exactly the cases where per-row fallback
    evaluation could read an arbitrary name."""
    refs: set[str] = set()
    for expr in exprs:
        if not _collect_column_refs(expr, refs):
            return None
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


def _collect_column_refs(expr: ast.Expr | None, out: set[str]) -> bool:
    """Collect lowercased column names ``expr`` references into ``out``.

    Returns False when the reference set is not statically determinable
    (stars, subqueries, unknown node kinds) — the scan then materializes
    every column. ``COUNT(*)`` is the deliberate exception: its star
    touches no concrete column, so a counting scan reads no values."""
    if expr is None or isinstance(expr, ast.Literal):
        return True
    if isinstance(expr, ast.ColumnRef):
        out.add(expr.name.lower())
        return True
    if isinstance(expr, ast.UnaryOp):
        return _collect_column_refs(expr.operand, out)
    if isinstance(expr, ast.BinaryOp):
        return _collect_column_refs(expr.left, out) and _collect_column_refs(
            expr.right, out
        )
    if isinstance(expr, ast.FunctionCall):
        if expr.name in AGGREGATE_NAMES:
            args = [a for a in expr.args if not isinstance(a, ast.Star)]
        else:
            args = expr.args
        return all(_collect_column_refs(a, out) for a in args)
    if isinstance(expr, ast.CaseExpr):
        parts: list[ast.Expr | None] = [expr.operand, expr.default]
        for when, then in expr.whens:
            parts.append(when)
            parts.append(then)
        return all(_collect_column_refs(p, out) for p in parts)
    if isinstance(expr, ast.InExpr):
        if not isinstance(expr.candidates, list):
            return False  # IN (SELECT ...): subquery owns the references
        return _collect_column_refs(expr.operand, out) and all(
            _collect_column_refs(c, out) for c in expr.candidates
        )
    if isinstance(expr, ast.BetweenExpr):
        return (
            _collect_column_refs(expr.operand, out)
            and _collect_column_refs(expr.low, out)
            and _collect_column_refs(expr.high, out)
        )
    if isinstance(expr, ast.LikeExpr):
        return _collect_column_refs(expr.operand, out) and _collect_column_refs(
            expr.pattern, out
        )
    if isinstance(expr, (ast.IsNullExpr, ast.CastExpr)):
        return _collect_column_refs(expr.operand, out)
    return False  # Star, ExistsExpr, ScalarSubquery, anything unknown


def _raise_first_batch_error(columns: list[list], relation: _Relation) -> None:
    """Raise the deferred error the interpreter would have hit first.

    It walks rows outermost and select items innermost, so the first
    error it raises is the minimum (row, item) pair in lexicographic
    order; within one item column only the earliest row can win. A
    column that *is* one of ``relation``'s own — what the kernel of a
    resolved column reference returns — holds stored values, never an
    error, and is not walked. That is decided by what the kernel
    returned, not by the item's syntax: an unresolvable reference
    compiles to a column of deferred errors."""
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


def _order_sensitive_expr(expr: ast.Expr | None) -> bool:
    """Whether evaluating ``expr`` for a single ungrouped aggregate row can
    observe the input row order (bare column refs read the group's first
    row; subqueries may correlate against it). Conservative: unknown node
    kinds count as sensitive."""
    if expr is None:
        return False
    if isinstance(expr, ast.Literal):
        return False
    if isinstance(expr, (ast.ColumnRef, ast.Star)):
        return True
    if isinstance(expr, (ast.ScalarSubquery, ast.ExistsExpr)):
        return True
    if isinstance(expr, ast.FunctionCall):
        if expr.name in AGGREGATE_NAMES:
            return False  # caller restricts to COUNT, which is order-free
        return any(_order_sensitive_expr(a) for a in expr.args)
    if isinstance(expr, ast.BinaryOp):
        return _order_sensitive_expr(expr.left) or _order_sensitive_expr(expr.right)
    if isinstance(expr, ast.UnaryOp):
        return _order_sensitive_expr(expr.operand)
    if isinstance(expr, ast.CaseExpr):
        return (
            _order_sensitive_expr(expr.operand)
            or any(
                _order_sensitive_expr(when) or _order_sensitive_expr(then)
                for when, then in expr.whens
            )
            or _order_sensitive_expr(expr.default)
        )
    if isinstance(expr, ast.InExpr):
        if not isinstance(expr.candidates, list):
            return True  # IN (SELECT ...) may correlate
        return _order_sensitive_expr(expr.operand) or any(
            _order_sensitive_expr(c) for c in expr.candidates
        )
    if isinstance(expr, ast.BetweenExpr):
        return (
            _order_sensitive_expr(expr.operand)
            or _order_sensitive_expr(expr.low)
            or _order_sensitive_expr(expr.high)
        )
    if isinstance(expr, ast.LikeExpr):
        return _order_sensitive_expr(expr.operand) or _order_sensitive_expr(
            expr.pattern
        )
    if isinstance(expr, (ast.IsNullExpr, ast.CastExpr)):
        return _order_sensitive_expr(expr.operand)
    return True


def _order_insensitive_output(
    stmt: ast.SelectStatement, aggregates: list[ast.FunctionCall]
) -> bool:
    """True when the statement's output provably ignores input row order.

    The qualifying shape is the agent-common ``SELECT COUNT(*) FROM ...``:
    one ungrouped aggregate row whose expressions never read a concrete
    row (COUNT only — SUM/AVG float accumulation is order-sensitive at the
    bit level, and bare columns read the first row of the group). Index
    probes feeding such statements may skip their rid sort.
    """
    if stmt.group_by or stmt.distinct or stmt.set_op is not None:
        return False
    if not aggregates or any(a.name != "COUNT" for a in aggregates):
        return False
    exprs: list[ast.Expr | None] = [item.expr for item in stmt.items]
    exprs.append(stmt.having)
    exprs.extend(order.expr for order in stmt.order_by)
    return not any(_order_sensitive_expr(e) for e in exprs)


def _key_columns(order_plans: list, cols: list) -> "list[tuple[list, bool]] | None":
    """``(values, descending)`` per ORDER BY plan of an all-vectorized
    projection whose item columns are ``cols`` — ``None`` when a key must
    be interpreted per row, or is an ordinal out of range (the per-row
    path raises that)."""
    key_columns = []
    for kind, payload, descending in order_plans:
        if kind == "vec":
            values = payload
        elif kind == "alias":
            values = cols[payload]
        elif kind == "ordinal" and 1 <= payload <= len(cols):
            values = cols[payload - 1]
        else:
            return None
        key_columns.append((values, descending))
    return key_columns


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

#: ORDER BY sort keys and SortedIndex entry order share one total order —
#: that identity is what lets an index-ordered scan replace a sort
#: bit-for-bit, so there is exactly one definition (storage.py)
_sort_key_element = ordering_key_element


def _descending_key_element(value: Any) -> tuple:
    """The DESC sort key: the NULL/type rank stays ascending (NULLS LAST
    either way), only the value ordering within each class is reversed."""
    element = _sort_key_element(value)
    return (element[0], _Reversed(element[1]), _Reversed(element[2]))


def _is_own_sort_key(values: list) -> bool:
    """Whether ``values`` are their own ORDER BY key: only ``str``, or only
    ``int``/``float`` and no NaN. There ``ordering_key_element`` is a
    bijection that preserves order, so sorting the values themselves (with
    ``reverse`` for DESC) is sorting their keys."""
    kinds = set(map(type, values))
    if kinds <= TEXT_CLASS:
        return True
    return kinds <= SORT_NUMBER_CLASS and not any(map(ne, values, values))


def _sort_keys(key_columns: "list[tuple[list, bool]]", reversible: bool):
    """Per-row sort keys for ``(values, descending)`` key columns, and
    whether to sort them in reverse. One key column that is its own key is
    used as is, DESC by reversing the sort — only where the caller sorts
    with that flag (``reversible``). Otherwise ``ordering_key_element`` —
    wrapped for DESC — is mapped over each column, zipped when there are
    several. (Mapped DESC keys compare through ``_Reversed`` in Python: a
    10k-row ``ORDER BY dwell_s DESC LIMIT 10`` takes ≈ 7x as long on them
    as on the column itself.)"""
    if reversible and len(key_columns) == 1:
        values, descending = key_columns[0]
        if _is_own_sort_key(values):
            return values, descending
    columns = [
        list(map(
            _descending_key_element if descending else _sort_key_element, values
        ))
        for values, descending in key_columns
    ]
    return (columns[0] if len(columns) == 1 else list(zip(*columns))), False


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


# --------------------------------------------------------------------------
# executor
# --------------------------------------------------------------------------


class Executor:
    def __init__(self, database: "Database"):
        self.db = database

    # ------------------------------------------------------------ dispatch

    def execute(self, stmt: ast.Statement, session: "Session") -> ResultSet:
        name = type(stmt).__name__
        handler = getattr(self, f"_exec_{name}", None)
        if handler is None:
            raise ExecutionError(f"unsupported statement {name}")
        return handler(stmt, session)

    # -------------------------------------------------------------- SELECT

    def _exec_SelectStatement(
        self, stmt: ast.SelectStatement, session: "Session"
    ) -> ResultSet:
        plan = self._plan_select(stmt, session)
        trace = self.db.tracer.current()
        if trace is not None:
            trace.plan = plan  # what the slow-statement log renders
        columns, rows = self._run_plan(plan, session, outer=None)
        return ResultSet(columns=columns, rows=rows, rowcount=len(rows), status="SELECT")

    def _plan_select(
        self, stmt: ast.SelectStatement, session: "Session"
    ) -> SelectPlan:
        """Plan ``stmt`` for execution. Reads take a shared lock per base
        table, held to transaction end (no-op without a lock manager), and
        each schema is resolved only after its lock is granted (see
        :meth:`_locked_table`), so nothing is planned against a table a
        concurrent DROP + CREATE replaced while this statement waited."""
        return plan_select(
            stmt, self.db, lambda name: self._locked_table(session, name, "S")
        )

    def _run_select(
        self,
        stmt: ast.SelectStatement,
        session: "Session",
        outer: Scope | None,
    ) -> tuple[list[str], list[tuple]]:
        return self._run_plan(self._plan_select(stmt, session), session, outer)

    def _run_plan(
        self, plan: SelectPlan, session: "Session", outer: Scope | None
    ) -> tuple[list[str], list[tuple]]:
        """Run one planned block: scan -> join -> filter -> group/project
        over one :class:`_Relation`, then the tail (DISTINCT, set
        operation, ORDER BY / top-N, OFFSET/LIMIT)."""

        def run_subquery(sub: ast.SelectStatement, scope: Scope) -> list[tuple]:
            _, sub_rows = self._run_select(sub, session, outer=scope)
            return sub_rows

        evaluator = Evaluator(run_subquery)
        stmt = plan.stmt
        scans = plan.scans
        # an ordered scan hands over rows in ORDER BY order with WHERE
        # applied, cut at OFFSET+LIMIT: no filter and no sort after it
        ordered = bool(scans) and scans[0].kind == "ordered"
        order_by = [] if ordered else stmt.order_by
        needed = stmt.limit + (stmt.offset or 0) if stmt.limit is not None else None
        refs = _referenced_names(_statement_exprs(stmt))
        unordered = _order_insensitive_output(stmt, plan.aggregates)
        trace = self.db.tracer.current()

        relation = _Relation({}, {}, 1)  # no FROM clause: one empty row
        for position, scan in enumerate(scans):
            started = perf_counter() if trace is not None else 0.0
            if ordered:
                source, _, examined = self._scan(
                    scan, session, outer, evaluator, refs, stmt.where,
                    limit=needed,
                )
            else:
                # pushed-down conjuncts: a row whose conjunct raised an
                # ExecutionError (e.g. a type-mismatched ordering) is kept
                # for the final WHERE, which raises only if the row
                # survives the joins — exactly as without pushdown
                source, _, examined = self._scan(
                    scan, session, outer, evaluator, refs, scan.filter,
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
                    relation, source, plan.joins[position - 1],
                    scans[: position + 1], outer, evaluator,
                )
            else:
                relation = source

        layout = _ScopeLayout(scans, outer)
        if stmt.where is not None and not ordered:
            select = self._selector(stmt.where, layout, evaluator)
            relation = relation.take(select(relation))

        items = expand_items(stmt.items, scans)
        out_columns = [item_name(item, index) for index, item in enumerate(items)]
        if plan.grouped:
            out_rows, order_keys = self._aggregate(
                plan, items, order_by, relation, layout, evaluator, run_subquery
            )
        else:
            # with no DISTINCT or set operation after it, a vectorized
            # projection orders and cuts its own rows (order_keys None)
            out_rows, order_keys = self._project(
                items, order_by, relation, layout, evaluator,
                not stmt.distinct and stmt.set_op is None, needed,
            )

        if stmt.distinct:
            out_rows, order_keys = self._distinct(out_rows, order_keys)

        if stmt.set_op is not None:
            kind = stmt.set_op[0]
            rhs_columns, rhs_rows = self._run_plan(plan.set_op, session, outer)
            if len(rhs_columns) != len(out_columns):
                raise ExecutionError(
                    f"{kind} operands must have the same number of columns"
                )
            out_rows = self._apply_set_op(kind, out_rows, rhs_rows)
            if order_by and out_rows:
                # set-op result ordered by ordinal/alias only
                out_rows = self._order_by_output(order_by, out_columns, out_rows)
        elif order_by and order_keys:
            out_rows = [
                out_rows[i] for i in self._ordered_indexes(order_keys, False, needed)
            ]

        offset = stmt.offset or 0
        if offset:
            out_rows = out_rows[offset:]
        if stmt.limit is not None:
            out_rows = out_rows[: stmt.limit]

        return out_columns, out_rows

    # ---------------------------------------------------------------- scan

    def _scan(
        self,
        scan: ScanPlan,
        session: "Session | None",
        outer: Scope | None,
        evaluator: Evaluator,
        refs: "set[str] | None",
        predicate: ast.Expr | None,
        keep_errors=(),
        limit: int | None = None,
        unordered: bool = False,
    ) -> tuple[_Relation, list[int], int]:
        """The scan operator, for every :class:`ScanPlan` kind and for
        UPDATE/DELETE targets: read the source batch by batch, apply the
        scan's own ``predicate`` to each batch and keep the survivors'
        columns. Returns ``(relation, rids, examined)`` — ``rids`` of the
        surviving heap rows, ``examined`` the rows consumed.

        Only columns named in ``refs`` are materialized (``None``: all).
        With a ``limit`` the scan stops at that many survivors — the early
        exit that makes an ordered ``ORDER BY ... LIMIT k`` O(k) instead
        of O(n log n). Rows past the exit are never evaluated, so a
        predicate whose error only a later row would trigger does not
        raise (the planner's error-surfacing contract), and they do not
        count as examined.
        """
        # columns are unknown only for a child block whose star cannot be
        # expanded: running it (in _batches) raises the proper error
        columns = scan.columns or []
        if refs is not None:
            columns = [c for c in columns if c.lower() in refs]
        if predicate is None:
            def select(chunk, limit):
                return range(chunk.length if limit is None else min(chunk.length, limit))
        else:
            select = self._selector(
                predicate, _ScopeLayout([scan], outer), evaluator, keep_errors
            )
        binding = scan.binding
        store: dict[str, list] = {name: [] for name in columns}
        rids: list[int] = []
        length = examined = 0
        # planned (and counted) even when LIMIT 0 leaves nothing to fetch
        batches = self._batches(scan, session, outer, columns, unordered, limit)
        for batch in () if limit == 0 else batches:
            chunk = _Relation({binding: batch.columns}, {binding: None}, batch.length)
            keep = select(chunk, None if limit is None else limit - length)
            whole = len(keep) == batch.length
            for name in columns:
                col = batch.columns[name]
                if whole and not length:
                    store[name] = col  # the batch's lists are the scan's own
                else:
                    store[name].extend(col if whole else [col[i] for i in keep])
            if batch.rids is not None:
                rids.extend(batch.rids if whole else [batch.rids[i] for i in keep])
            length += len(keep)
            if length == limit:
                examined += keep[-1] + 1  # rows fetched past the exit don't count
                break
            examined += batch.length
        return _Relation({binding: store}, {binding: None}, length), rids, examined

    def _batches(
        self, scan: ScanPlan, session, outer, columns, unordered, first
    ) -> "Iterator[RowBatch]":
        """The column batches of one planned source: a child block's
        result or a system view's rows transposed into one batch; heap
        batches in rid order, or in index order for an ``ordered`` path.
        Value lists are fresh — slices or gathers of the heap's columns,
        never those lists themselves — so the scan may keep them and
        in-statement mutations of the heap do not reach it."""
        if scan.child is not None:  # view or derived table
            _, rows = self._run_plan(scan.child, session, outer)
            wanted = set(columns)
            store = {
                name: [row[i] for row in rows]
                for i, name in enumerate(scan.columns)
                if name in wanted
            }
            return iter([RowBatch(None, store, len(rows))])
        if scan.path is None:  # observability system view
            _, rows = system_view_rows(self.db, scan.name)
            store = {name: [row.get(name) for row in rows] for name in columns}
            return iter([RowBatch(None, store, len(rows))])
        heap = scan.heap
        size = self._batch_size()
        rids = self._path_rids(scan, unordered)
        if rids is None:
            return heap.rows_batch(size, columns)

        def fetch():
            # fetches sized by what the statement still needs, then
            # doubling: a scan that exits early never reads a full batch
            stream = iter(rids)
            count = min(first or size, size)
            while chunk := list(islice(stream, count)):
                yield heap.fetch_batch(chunk, columns)
                count = min(count * 2, size)

        return fetch()

    def _path_rids(self, scan: ScanPlan, unordered: bool = False):
        """Candidate rids of a planned base-table scan, in the order to
        fetch them (``None``: the whole heap in rid order), counting the
        access path in ``planner_stats``. Probed rids come back in rid
        order so the source feeds the pipeline exactly like a seq scan
        would — except when the statement's output provably ignores row
        order (``unordered``: pure COUNT aggregation), where the sort is
        skipped — and an ``ordered`` path yields them in index order.
        Every path is a pure reduction: callers re-apply the full WHERE."""
        path, index = scan.path, scan.index
        self.db.bump_planner_stat(f"{path.kind}_scans")
        if path.kind == "seq":
            return None
        rng = path.range
        bounds = () if rng is None else (rng.low, rng.high, rng.incl_low, rng.incl_high)
        if path.kind == "ordered":
            start, end = index.slice_bounds(path.prefix_values, *bounds)
            return index.ordered_rids(path.reverse, start, end, path.prefix_values)
        if path.kind == "index":
            rids = index.probe(scan.key)
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

    # ---------------------------------------------------------- predicates

    def _kernel(self, expr: ast.Expr, layout: _ScopeLayout):
        """``expr`` compiled to a batch kernel, or ``None`` when it needs
        the interpreter (subqueries, aggregates, possibly-correlated
        names) or ``enable_compiled_predicates`` is off."""
        if not self.db.planner_options.get("enable_compiled_predicates", True):
            return None
        return compile_batch_expr(expr, layout.resolve)

    def _batch_size(self) -> int:
        size = self.db.planner_options.get("batch_size", DEFAULT_BATCH_SIZE)
        if not isinstance(size, int) or size <= 0:
            return DEFAULT_BATCH_SIZE
        return size

    def _selector(
        self,
        predicate: ast.Expr,
        layout: _ScopeLayout,
        evaluator: Evaluator,
        keep_errors=(),
    ):
        """The one predicate seam: ``select(relation, limit=None)`` returns,
        in order, the row indexes of ``relation`` on which ``predicate`` is
        true (NULL counts as false), stopping at ``limit`` of them.

        The predicate is compiled once per call — once per operator — and
        evaluated over chunks of at most ``batch_size`` rows; when it does
        not compile, or compiled predicates are off, every row goes
        through the interpreter instead. Either way an evaluation error
        surfaces only when the walk reaches the erroring row, so a
        ``limit`` reached first hides it; an erroring row whose error is
        one of ``keep_errors`` is kept rather than raised.
        """
        kernel = self._kernel(predicate, layout)
        size = self._batch_size()

        def select(relation: _Relation, limit: int | None = None) -> list[int]:
            kept: list[int] = []
            if kernel is None:
                scope = layout.scope(relation)
                for i in range(relation.length):
                    relation.row = i
                    try:
                        keep = evaluator.evaluate_predicate(predicate, scope)
                    except keep_errors:
                        keep = True
                    if keep:
                        kept.append(i)
                        if len(kept) == limit:
                            break
                return kept
            length = relation.length
            for start in range(0, length, size):
                chunk = relation
                if length > size:
                    chunk = relation.slice(start, min(start + size, length))
                values = kernel(chunk)
                if limit is None and TRUTH_CLASS.issuperset(map(type, values)):
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
        sources: list[ScanPlan],
        outer: Scope | None,
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
            layout = _ScopeLayout(sources, outer)
            kept = self._selector(predicate, layout, evaluator)(pairs)
            lefts = [lefts[i] for i in kept]
            rights = [rights[i] for i in kept]

        # NULL extension is decided after the predicate: a left (right) row
        # none of whose pairs survived it counts as unmatched
        if plan.kind == "LEFT":
            paired_lefts, paired_rights = lefts, rights
            lefts, rights = [], []
            unmatched_from = 0  # first left position not yet emitted
            for position, index in zip(paired_lefts, paired_rights):
                for skipped in range(unmatched_from, position):
                    lefts.append(skipped)
                    rights.append(None)
                unmatched_from = position + 1
                lefts.append(position)
                rights.append(index)
            for skipped in range(unmatched_from, left.length):
                lefts.append(skipped)
                rights.append(None)
        elif plan.kind == "RIGHT":
            matched = set(rights)
            unmatched = [i for i in range(right.length) if i not in matched]
            lefts = lefts + [None] * len(unmatched)
            rights = rights + unmatched
        result = left.take(lefts).beside(right.take(rights))
        if trace is not None:
            trace.record_join(plan, result.length, perf_counter() - started)
        return result

    @staticmethod
    def _hash_pairs(
        left: _Relation, right: _Relation, plan: JoinPlan
    ) -> tuple[list[int], list[int]]:
        """Equi-key candidate pairs in probe order: build a table over the
        right side's key columns, probe it with each left row."""

        def valid(key: tuple) -> bool:
            # SQL equality is never true against NULL; NaN != NaN guards the
            # dict-identity shortcut that would otherwise match a shared object
            return not any(v is None or v != v for v in key)

        buckets: dict[tuple, list[int]] = {}
        right_keys = zip(
            *[right.column(plan.right_binding, k.right_column) for k in plan.keys]
        )
        for index, key in enumerate(right_keys):
            if valid(key):
                buckets.setdefault(key, []).append(index)
        lefts: list[int] = []
        rights: list[int] = []
        left_keys = zip(
            *[left.column(k.left_binding, k.left_column) for k in plan.keys]
        )
        for position, key in enumerate(left_keys):
            if valid(key):
                for index in buckets.get(key, ()):
                    lefts.append(position)
                    rights.append(index)
        return lefts, rights

    # ------------------------------------------------------- group / project

    def _project(
        self, items, order_by, relation, layout, evaluator, final, needed
    ) -> "tuple[list[tuple], list | None]":
        """Ungrouped projection over the relation's columns — no per-row
        dict is ever built. Returns the output rows and their per-row ORDER
        BY keys, or ``None`` for keys when the rows come back ordered.

        When every item and every ORDER BY key is a vectorized column, rows
        are transposed straight from the item columns and the keys are
        whole columns (:func:`_sort_keys`); with ``final`` rows (no
        DISTINCT or set operation follows) the row indexes are ordered —
        top-N cut at ``needed`` — and only the chosen rows materialized.
        Otherwise each row is assembled in turn, interpreting what does
        not compile."""
        n = relation.length
        plans: list[tuple[bool, Any]] = []
        for item in items:
            fn = self._kernel(item.expr, layout)
            if fn is not None:
                plans.append((True, fn(relation)))
            else:
                plans.append((False, item.expr))
        order_plans = self._order_plans(order_by, items, relation, layout)
        cols = [payload for is_vec, payload in plans if is_vec]
        key_columns = (
            _key_columns(order_plans, cols) if len(cols) == len(plans) else None
        )
        if key_columns is not None:
            # a row's item errors come before its key errors, as per row
            _raise_first_batch_error(
                cols + [payload for kind, payload, _ in order_plans if kind == "vec"],
                relation,
            )
            if not n:
                return [], None
            if not key_columns:
                return list(zip(*cols)), None
            keys, reverse = _sort_keys(key_columns, final)
            if not final:
                return list(zip(*cols)), keys
            chosen = self._ordered_indexes(keys, reverse, needed)
            return list(zip(*[list(map(col.__getitem__, chosen)) for col in cols])), None
        scope = layout.scope(relation)
        out_rows: list[tuple] = []
        order_keys: list[tuple] = []
        for i in range(n):
            relation.row = i
            values = []
            for is_vec, payload in plans:
                if is_vec:
                    v = payload[i]
                    if type(v) is BatchError:
                        raise v.exc
                    values.append(v)
                else:
                    values.append(evaluator.evaluate(payload, scope))
            row = tuple(values)
            out_rows.append(row)
            if order_plans:
                order_keys.append(
                    self._order_key(order_plans, row, i, scope, evaluator)
                )
        return out_rows, order_keys

    def _aggregate(
        self, plan, items, order_by, relation, layout, evaluator, run_subquery
    ) -> tuple[list[tuple], list[tuple]]:
        """Grouped/aggregate evaluation over the relation's columns.

        Group keys come from vectorized key columns where compilable;
        groups hold member *indexes* in first-member order, and each
        aggregate folds its argument column in input order (group, then
        aggregate, then member), so deferred errors surface at the point
        a row-at-a-time fold would raise and float sums are bit-identical
        across engines. One key column of one class groups by value in one
        dict pass; COUNT is the member count, and SUM/AVG/MIN/MAX/COUNT
        over an all-int/float argument column fold each member slice in C
        (:data:`_FOLDS`)."""
        stmt = plan.stmt
        n = relation.length
        scope = layout.scope(relation)
        # group key -> member indexes, in first-member order
        groups: dict[Any, list[int]] = {}
        if stmt.group_by:
            key_plans: list[tuple[bool, Any]] = []
            for g in stmt.group_by:
                fn = self._kernel(g, layout)
                if fn is not None:
                    key_plans.append((True, fn(relation)))
                else:
                    key_plans.append((False, g))
            single = key_plans[0][1] if len(key_plans) == 1 and key_plans[0][0] else ()
            kinds = set(map(type, single))
            if len(kinds) == 1 and kinds <= GROUP_CLASS:
                # one key column of one class, no NULL: the value is as
                # good a key as (type name, value) — NaN and -0.0/0.0 hash
                # and compare alike either way
                for i, v in enumerate(single):
                    members = groups.get(v)
                    if members is None:
                        groups[v] = [i]
                    else:
                        members.append(i)
            else:
                for i in range(n):
                    relation.row = i
                    key_values = []
                    for is_vec, payload in key_plans:
                        if is_vec:
                            v = payload[i]
                            if type(v) is BatchError:
                                raise v.exc
                        else:
                            v = evaluator.evaluate(payload, scope)
                        key_values.append(v)
                    key = tuple(
                        _NULL_SENTINEL if v is None else (type(v).__name__, v)
                        for v in key_values
                    )
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
            elif not agg.args:
                agg_plans.append(("malformed", None))
            else:
                fn = self._kernel(agg.args[0], layout)
                if fn is None:
                    agg_plans.append(("expr", agg.args[0]))
                    continue
                values = fn(relation)
                fold = None if agg.distinct else _FOLDS.get(agg.name)
                if fold is not None and FOLD_CLASS.issuperset(map(type, values)):
                    agg_plans.append(("fold", (fold, values)))
                else:
                    agg_plans.append(("vec", values))

        # aggregate references in ORDER BY need the per-group evaluator,
        # so grouped order keys are interpreted, never vectorized
        order_plans = self._order_plans(order_by, items)
        out_rows: list[tuple] = []
        order_keys: list[tuple] = []
        for members in groups.values():
            computed: dict[int, Any] = {}
            for agg, (kind, payload) in zip(plan.aggregates, agg_plans):
                if kind == "fold":
                    fold, values = payload
                    computed[id(agg)] = fold(list(map(values.__getitem__, members)))
                    continue
                if kind == "count" and not agg.distinct:
                    computed[id(agg)] = len(members)
                    continue
                acc = make_aggregate(agg.name, agg.distinct)
                if kind == "count":
                    for _ in members:
                        acc.add(1)
                elif kind == "malformed":
                    raise ExecutionError(f"{agg.name}() requires an argument")
                elif kind == "vec":
                    for i in members:
                        v = payload[i]
                        if type(v) is BatchError:
                            raise v.exc
                        acc.add(v)
                else:
                    for i in members:
                        relation.row = i
                        acc.add(evaluator.evaluate(payload, scope))
                computed[id(agg)] = acc.result()
            agg_eval = _AggregateEvaluator(run_subquery, computed)
            if members:
                relation.row = members[0]
                rep_scope = scope
            else:
                rep_scope = Scope({}, {}, frozenset(), None)
            if stmt.having is not None and not agg_eval.evaluate_predicate(
                stmt.having, rep_scope
            ):
                continue
            row = tuple(agg_eval.evaluate(item.expr, rep_scope) for item in items)
            out_rows.append(row)
            if order_plans:
                order_keys.append(
                    self._order_key(order_plans, row, None, rep_scope, agg_eval)
                )
        return out_rows, order_keys

    def _order_plans(self, order_by, items, relation=None, layout=None) -> list[tuple]:
        """Per-ORDER-BY-item plan: output ordinal, output alias, vectorized
        column (when ``relation`` is given and the expression compiles),
        or interpreted expression."""
        plans = []
        for order in order_by:
            expr = order.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                plans.append(("ordinal", expr.value, order.descending))
                continue
            if isinstance(expr, ast.ColumnRef) and expr.table is None:
                alias_index = None
                for index, item in enumerate(items):
                    if item.alias and item.alias.lower() == expr.name.lower():
                        alias_index = index
                        break
                if alias_index is not None:
                    plans.append(("alias", alias_index, order.descending))
                    continue
            fn = self._kernel(expr, layout) if relation is not None else None
            if fn is not None:
                plans.append(("vec", fn(relation), order.descending))
            else:
                plans.append(("expr", expr, order.descending))
        return plans

    def _order_key(self, plans, row, i, scope, evaluator) -> tuple:
        key_parts = []
        for kind, payload, descending in plans:
            if kind == "ordinal":
                if not (1 <= payload <= len(row)):
                    raise ExecutionError(
                        f"ORDER BY position {payload} is out of range"
                    )
                value = row[payload - 1]
            elif kind == "alias":
                value = row[payload]
            elif kind == "vec":
                value = payload[i]
                if type(value) is BatchError:
                    raise value.exc
            else:
                value = evaluator.evaluate(payload, scope)
            key_parts.append(
                _descending_key_element(value) if descending
                else _sort_key_element(value)
            )
        return tuple(key_parts)

    def _ordered_indexes(self, keys: list, reverse: bool, needed: "int | None"):
        """Row indexes ordered by ``keys`` (stable: ties keep row order),
        only the first ``needed`` when that bounds the sort. Bounded top-N:
        ``heapq.nsmallest`` / ``nlargest`` with a key are documented
        equivalent to ``sorted(..., reverse=...)[:n]``, so this returns
        the same rows in the same order without sorting the discarded
        tail; ``enable_topn=False`` orders everything and the caller
        cuts."""
        n = len(keys)
        if (
            needed is not None
            and needed < n
            and self.db.planner_options.get("enable_topn", True)
        ):
            self.db.bump_planner_stat("topn_limits")
            pick = heapq.nlargest if reverse else heapq.nsmallest
            return pick(needed, range(n), key=keys.__getitem__)
        return sorted(range(n), key=keys.__getitem__, reverse=reverse)

    # ---------------------------------------------------------------- EXPLAIN

    def _exec_ExplainStatement(
        self, stmt: ast.ExplainStatement, session: "Session"
    ) -> ResultSet:
        """Render the plan :meth:`_run_plan` would be handed. Plain EXPLAIN
        resolves tables straight from the catalog: no locks, nothing runs.
        ANALYZE plans like any execution, runs that very plan under a probe
        trace and annotates each node with its own actual rows and time."""
        if not stmt.analyze:
            lines = plan_select(stmt.select, self.db, self.db.catalog.table).lines()
        else:
            plan = self._plan_select(stmt.select, session)
            tracer = self.db.tracer
            probe = tracer.probe()
            started = perf_counter()
            try:
                _, result_rows = self._run_plan(plan, session, None)
            finally:
                total_s = perf_counter() - started
                tracer.release(probe)
            lines = plan.lines(probe.actuals)
            lines.append(f"Result rows: {len(result_rows)}")
            lines.append(f"Execution time: {total_s * 1000.0:.3f} ms")
        return ResultSet(
            columns=["QUERY PLAN"], rows=[(line,) for line in lines], status="EXPLAIN"
        )

    @staticmethod
    def _order_by_output(order_by, columns, rows):
        lowered = [c.lower() for c in columns]

        def key(row):
            parts = []
            for order in order_by:
                expr = order.expr
                if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                    value = row[expr.value - 1]
                elif isinstance(expr, ast.ColumnRef) and expr.name.lower() in lowered:
                    value = row[lowered.index(expr.name.lower())]
                else:
                    raise ExecutionError(
                        "ORDER BY after a set operation must use output columns"
                    )
                parts.append(
                    _descending_key_element(value) if order.descending
                    else _sort_key_element(value)
                )
            return tuple(parts)

        return sorted(rows, key=key)

    @staticmethod
    def _distinct(rows, order_keys):
        seen: set = set()
        kept_rows, kept_keys = [], []
        for index, row in enumerate(rows):
            marker = tuple(
                _NULL_SENTINEL if v is None else (type(v).__name__, v) for v in row
            )
            if marker in seen:
                continue
            seen.add(marker)
            kept_rows.append(row)
            if order_keys:
                kept_keys.append(order_keys[index])
        return kept_rows, kept_keys

    @staticmethod
    def _apply_set_op(kind, left, right):
        def markers(rows):
            return [
                tuple(
                    _NULL_SENTINEL if v is None else (type(v).__name__, v)
                    for v in row
                )
                for row in rows
            ]

        if kind == "UNION ALL":
            return left + right
        left_markers = markers(left)
        right_markers = markers(right)
        if kind == "UNION":
            seen: set = set()
            result = []
            for marker, row in zip(left_markers + right_markers, left + right):
                if marker not in seen:
                    seen.add(marker)
                    result.append(row)
            return result
        if kind == "INTERSECT":
            right_set = set(right_markers)
            seen = set()
            result = []
            for marker, row in zip(left_markers, left):
                if marker in right_set and marker not in seen:
                    seen.add(marker)
                    result.append(row)
            return result
        if kind == "EXCEPT":
            right_set = set(right_markers)
            seen = set()
            result = []
            for marker, row in zip(left_markers, left):
                if marker not in right_set and marker not in seen:
                    seen.add(marker)
                    result.append(row)
            return result
        raise ExecutionError(f"unsupported set operation {kind}")

    # ----------------------------------------------------------------- DML

    def _evaluator(self, session: "Session") -> Evaluator:
        def run_subquery(sub: ast.SelectStatement, scope: Scope) -> list[tuple]:
            _, rows = self._run_select(sub, session, outer=scope)
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
        self, stmt: ast.InsertStatement, session: "Session"
    ) -> ResultSet:
        # DML takes an exclusive lock on its target and shared locks on
        # the tables its FK checks read, all held to transaction end
        schema = self._locked_table(session, stmt.table, "X")
        for fk in schema.foreign_keys:
            session.lock_table(fk.ref_table, "S")
        evaluator = self._evaluator(session)
        empty_scope = Scope({}, {}, frozenset(), None)

        target_columns = stmt.columns or schema.column_names()
        for name in target_columns:
            schema.column(name)  # raises UnknownColumnError

        if stmt.select is not None:
            _, value_rows = self._run_select(stmt.select, session, outer=None)
        else:
            value_rows = [
                tuple(evaluator.evaluate(expr, empty_scope) for expr in row)
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
            self._check_row_constraints(schema, row, evaluator, session)
            session.tx.apply(
                self.db,
                {"op": "insert", "table": table_key, "rid": None, "row": row},
            )
            inserted += 1
        return ResultSet(rowcount=inserted, status=f"INSERT {inserted}")

    def _build_row(
        self, schema: TableSchema, provided: dict[str, Any], evaluator: Evaluator
    ) -> Row:
        provided_lower = {k.lower(): v for k, v in provided.items()}
        row: Row = {}
        empty_scope = Scope({}, {}, frozenset(), None)
        for column in schema.columns:
            key = column.name.lower()
            if key in provided_lower:
                row[column.name] = coerce(
                    provided_lower[key], column.ctype, column.name
                )
            elif column.has_default:
                default = column.default
                if isinstance(default, ast.Expr):
                    default = evaluator.evaluate(default, empty_scope)
                row[column.name] = coerce(default, column.ctype, column.name)
            else:
                row[column.name] = None
        return row

    def _check_row_constraints(
        self,
        schema: TableSchema,
        row: Row,
        evaluator: Evaluator,
        session: "Session",
    ) -> None:
        for column in schema.columns:
            if column.not_null and row.get(column.name) is None:
                raise NotNullViolation(
                    f"null value in column {column.name!r} of relation "
                    f"{schema.name!r} violates not-null constraint"
                )
        if schema.checks:
            scope = Scope(
                {},
                {k.lower(): v for k, v in row.items()},
                frozenset(),
                None,
            )
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
        for fk in schema.foreign_keys:
            self._check_fk_exists(fk, row, session)

    def _check_fk_exists(self, fk: ForeignKey, row: Row, session: "Session") -> None:
        values = tuple(row.get(c) for c in fk.columns)
        if any(v is None for v in values):
            return  # SQL: NULL FK values pass
        ref_schema = self.db.catalog.table(fk.ref_table)
        ref_heap = self.db.heap(ref_schema.name)
        if self._key_lookup(ref_heap, fk.ref_columns)(values):
            return
        raise ForeignKeyViolation(
            f"insert or update violates foreign key constraint: "
            f"({', '.join(fk.columns)})={values!r} is not present in "
            f"{fk.ref_table}({', '.join(fk.ref_columns)})"
        )

    def _referencing_check(
        self, schema: TableSchema
    ) -> "Callable[[list[Row]], str | None]":
        """``violation(old_rows)``: if rows elsewhere reference one of
        ``old_rows``, a message for the first that is, else ``None``. One
        lookup per foreign key into ``schema``, built here once per
        statement however many rows — or calls — ask: a statement writes
        only ``schema``, never the referencing tables the lookups read (a
        foreign key names a table that existed before its own, so none
        references itself)."""
        lookups = []
        for other_name in self.db.catalog.referencing_tables(schema.name):
            other = self.db.catalog.table(other_name)
            other_heap = self.db.heap(other.name)
            for fk in other.foreign_keys:
                if fk.ref_table.lower() == schema.name.lower():
                    lookups.append(
                        (other, fk.ref_columns, self._key_lookup(other_heap, fk.columns))
                    )

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
        self, stmt: ast.UpdateStatement, session: "Session"
    ) -> ResultSet:
        schema = self._locked_table(session, stmt.table, "X")
        for fk in schema.foreign_keys:
            session.lock_table(fk.ref_table, "S")  # forward FK checks read these
        for other in self.db.catalog.referencing_tables(schema.name):
            session.lock_table(other, "S")  # FK back-reference checks read these
        heap = self.db.heap(schema.name)
        evaluator = self._evaluator(session)
        assignments = []
        for name, expr in stmt.assignments:
            column = schema.column(name)
            assignments.append((column, expr))

        referenced_key_columns = {
            c.lower()
            for other_name in self.db.catalog.referencing_tables(schema.name)
            for fk in self.db.catalog.table(other_name).foreign_keys
            if fk.ref_table.lower() == schema.name.lower()
            for c in fk.ref_columns
        }

        targets = self._dml_targets(schema, stmt.table, heap, stmt.where, evaluator)
        referencing = (
            self._referencing_check(schema) if referenced_key_columns else None
        )

        updated = 0
        table_key = schema.name.lower()
        for rid, old_row in targets:
            scope = self._row_scope(schema, stmt.table, old_row)
            new_row = dict(old_row)
            for column, expr in assignments:
                new_row[column.name] = coerce(
                    evaluator.evaluate(expr, scope), column.ctype, column.name
                )
            self._check_row_constraints(schema, new_row, evaluator, session)
            changed_ref_keys = any(
                old_row.get(c) != new_row.get(c)
                for c in old_row
                if c.lower() in referenced_key_columns
            )
            if changed_ref_keys:
                message = referencing([old_row])
                if message:
                    raise ForeignKeyViolation(message)
            session.tx.apply(
                self.db,
                {"op": "update", "table": table_key, "rid": rid, "row": new_row},
            )
            updated += 1
        return ResultSet(rowcount=updated, status=f"UPDATE {updated}")

    def _exec_DeleteStatement(
        self, stmt: ast.DeleteStatement, session: "Session"
    ) -> ResultSet:
        schema = self._locked_table(session, stmt.table, "X")
        for other in self.db.catalog.referencing_tables(schema.name):
            session.lock_table(other, "S")  # FK back-reference checks read these
        heap = self.db.heap(schema.name)
        evaluator = self._evaluator(session)

        targets = self._dml_targets(schema, stmt.table, heap, stmt.where, evaluator)

        message = self._referencing_check(schema)([row for _rid, row in targets])
        if message:
            raise ForeignKeyViolation(message)

        deleted = 0
        table_key = schema.name.lower()
        for rid, _row in targets:
            session.tx.apply(
                self.db, {"op": "delete", "table": table_key, "rid": rid}
            )
            deleted += 1
        return ResultSet(rowcount=deleted, status=f"DELETE {deleted}")

    def _dml_targets(
        self,
        schema: TableSchema,
        binding: str,
        heap: HeapTable,
        where: ast.Expr | None,
        evaluator: Evaluator,
    ) -> list[tuple[int, Row]]:
        """Resolve UPDATE/DELETE target rows through access-path planning.

        The same scan planner that serves SELECT sources narrows the
        candidate set here — a covering index probe, union or sorted-index
        range slice instead of the unconditional heap scan. Candidates
        always get the *full* WHERE re-applied (compiled when possible),
        and targets come back in rid order, the order the heap scan
        produced — so undo logs, WAL records, and constraint-error
        attribution are byte-identical to the seq-scan plan.
        """
        scan = plan_table_scan(self.db, schema, binding, where)
        _, rids, _ = self._scan(
            scan, None, None, evaluator, _referenced_names([where]), where
        )
        return [(rid, heap.get(rid)) for rid in rids]

    @staticmethod
    def _row_scope(schema: TableSchema, binding: str, row: Row) -> Scope:
        unqualified = {k.lower(): v for k, v in row.items()}
        qualified = {f"{binding.lower()}.{k.lower()}": v for k, v in row.items()}
        qualified.update(
            {f"{schema.name.lower()}.{k.lower()}": v for k, v in row.items()}
        )
        return Scope(qualified, unqualified, frozenset(), None)

    # ----------------------------------------------------------------- DDL

    def _exec_CreateTableStatement(
        self, stmt: ast.CreateTableStatement, session: "Session"
    ) -> ResultSet:
        catalog = self.db.catalog
        # DDL takes an exclusive lock on the object name — for CREATE this
        # also serializes two sessions racing to create the same table
        session.lock_table(stmt.table, "X")
        if stmt.if_not_exists and catalog.has_object(stmt.table):
            return ResultSet(status="CREATE TABLE (exists)")

        columns: list[Column] = []
        primary_key = list(stmt.primary_key)
        uniques = [tuple(u) for u in stmt.uniques]
        foreign_keys: list[ForeignKey] = []
        checks: list[ast.Expr] = list(stmt.checks)
        check_sources = [expr_to_sql(check) for check in stmt.checks]
        evaluator = self._evaluator(session)
        empty_scope = Scope({}, {}, frozenset(), None)

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
                target = catalog.table(ref_table)
                if not ref_column:
                    if not target.primary_key:
                        raise ExecutionError(
                            f"referenced table {ref_table!r} has no primary key"
                        )
                    ref_column = target.primary_key[0]
                foreign_keys.append(
                    ForeignKey((cdef.name,), target.name, (ref_column,))
                )

        for fkdef in stmt.foreign_keys:
            target = catalog.table(fkdef.ref_table)
            ref_columns = tuple(fkdef.ref_columns) or tuple(target.primary_key)
            if not ref_columns:
                raise ExecutionError(
                    f"referenced table {fkdef.ref_table!r} has no primary key"
                )
            foreign_keys.append(
                ForeignKey(tuple(fkdef.columns), target.name, ref_columns)
            )

        schema = TableSchema(
            name=stmt.table,
            columns=columns,
            primary_key=tuple(primary_key),
            foreign_keys=foreign_keys,
            uniques=[tuple(u) for u in uniques],
            checks=checks,
            check_sources=check_sources,
        )
        for name in schema.primary_key:
            schema.column(name).not_null = True
            schema.column(name)  # validates existence
        for unique in schema.uniques:
            for name in unique:
                schema.column(name)

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
        self, stmt: ast.DropTableStatement, session: "Session"
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
        self, stmt: ast.AlterTableStatement, session: "Session"
    ) -> ResultSet:
        session.lock_table(stmt.table, "X")
        schema = self.db.catalog.table(stmt.table)
        table_key = schema.name.lower()
        if stmt.action == "ADD_COLUMN":
            cdef = stmt.column
            assert cdef is not None
            if schema.has_column(cdef.name):
                raise ExecutionError(
                    f"column {cdef.name!r} already exists in {schema.name!r}"
                )
            ctype = ColumnType.parse(cdef.declared_type)
            evaluator = self._evaluator(session)
            empty_scope = Scope({}, {}, frozenset(), None)
            default = (
                evaluator.evaluate(cdef.default, empty_scope)
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
            record = {"op": "drop_column", "table": table_key, "column": column.name}
        elif stmt.action == "RENAME_COLUMN":
            column = schema.column(stmt.old_name or "")
            if schema.has_column(stmt.new_name or ""):
                raise ExecutionError(f"column {stmt.new_name!r} already exists")
            record = {
                "op": "rename_column",
                "table": table_key,
                "old": column.name,
                "new": stmt.new_name or "",
            }
        elif stmt.action == "RENAME_TABLE":
            record = {
                "op": "rename_table",
                "old": schema.name,
                "new": stmt.new_name or "",
            }
        else:
            raise ExecutionError(f"unsupported ALTER TABLE action {stmt.action}")
        session.tx.apply(self.db, record)
        return ResultSet(status="ALTER TABLE")

    def _exec_CreateIndexStatement(
        self, stmt: ast.CreateIndexStatement, session: "Session"
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
        self, stmt: ast.DropIndexStatement, session: "Session"
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
        self, stmt: ast.AnalyzeStatement, session: "Session"
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
        self, stmt: ast.CreateViewStatement, session: "Session"
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
        self, stmt: ast.DropViewStatement, session: "Session"
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
