"""Statement executor: the query-processing core of minidb.

The executor receives parsed AST statements plus a :class:`Session` and
performs them against the database's catalog and heaps, logging undo actions
through the session's transaction manager so every statement is atomic and
every explicit transaction can roll back.

Every SELECT block is planned exactly once, by
:func:`repro.minidb.planner.plan_select`, and this module only *consumes*
the :class:`~repro.minidb.planner.SelectPlan` it is handed: access paths,
the index and key to probe, pushed-down filters, join strategies and the
pipeline choice are all read off plan nodes (``EXPLAIN`` renders the same
value; tracer events and ``EXPLAIN ANALYZE`` actuals are keyed on the
node objects). UPDATE/DELETE resolve their target rows through the same
scan planner. A block is planned only after the S locks on its base
tables are granted (:meth:`Executor._plan_select`).

Three pipelines run a planned block, sharing one tail (DISTINCT, set
operations, ORDER BY / bounded top-N via ``heapq``, OFFSET/LIMIT):

* **Row fold** — the general, materializing path: scan each source
  (:meth:`Executor._scan_source` — child blocks for views and derived
  tables, index probes / range slices / unions or a heap scan for base
  tables, then the pushed-down prefilter), fold sources and explicit
  joins one at a time, WHERE filter, GROUP BY with accumulator
  aggregates, HAVING, projection. Correlated subqueries are supported
  via scope chaining.
* **Ordered scan** — a ``kind == "ordered"`` path reads rows from a
  sorted index in ORDER BY order, applies WHERE in chunks sized by what
  the statement still needs, skips the sort and stops after OFFSET+LIMIT
  surviving rows.
* **Column batch** — a single-base-table block (``ScanPlan.batched``)
  scans :class:`RowBatch` column slices and evaluates WHERE, projection
  and aggregates as whole-column kernels, falling back per row *inside*
  the batch for what the kernel compiler punts on.

There are two expression engines (:mod:`repro.minidb.expressions`): the
AST interpreter — the reference, and the only path for subquery-bearing
or correlated expressions — and batch kernels
(:func:`~repro.minidb.expressions.compile_batch_expr`). Every predicate
site outside the column-batch pipeline — the row fold's WHERE, the
hash-join residual, the ordered scan, the pushed-down prefilter and
UPDATE/DELETE target filtering — goes through one seam,
:meth:`Executor._filter`: compile once per statement, evaluate the
row-shaped elements a chunk at a time as a :class:`_PartsBatch`, keep
what is ``True``, raise a deferred error only when the consumer reaches
its element, and interpret per row when the predicate does not compile.
Hash joins build a table over the right side and probe it per left row
— including LEFT/RIGHT NULL extension for unmatched rows — non-equi
conditions run nested loops on the interpreter and conditionless
pairings remain cross products. Row scopes are built from a precomputed
column layout (:class:`_ScopeLayout`), so constructing the scope for a
row or a candidate pair is O(1) instead of O(total columns).

``db.planner_options`` keeps the baselines the equivalence suites compare
against (``enable_index_scan``, ``enable_topn``,
``enable_compiled_predicates``, ``enable_batch_execution`` +
``batch_size``, ``enable_hash_join``); ``db.planner_stats`` counts what
actually ran.
"""

from __future__ import annotations

import heapq
from itertools import islice
from operator import attrgetter
from time import perf_counter
from typing import TYPE_CHECKING, Any

from ..obs.views import system_view_rows
from . import ast_nodes as ast
from .batch import DEFAULT_BATCH_SIZE, BatchError, RowBatch
from .catalog import Column, ForeignKey, IndexSchema, TableSchema, ViewSchema
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
from .engines.serial import dump_column, dump_index, dump_table_schema
from .result import ResultSet
from .sqlgen import expr_to_sql, select_to_sql
from .statistics import build_table_statistics
from .storage import (
    HashIndex,
    HeapTable,
    Row,
    SortedIndex,
    ordering_key_element,
)
from .types import ColumnType, coerce

if TYPE_CHECKING:  # pragma: no cover
    from .database import Database, Session


# --------------------------------------------------------------------------
# helper structures for SELECT
# --------------------------------------------------------------------------


class _Source:
    """One resolved FROM source: binding name + columns + materialized rows."""

    def __init__(self, binding: str, columns: list[str], rows: list[Row]):
        self.binding = binding
        self.columns = columns
        self.rows = rows


class _JoinedRow:
    """A row of the joined relation: binding -> per-source row (or None)."""

    __slots__ = ("parts",)

    def __init__(self, parts: dict[str, Row | None]):
        self.parts = parts

    def extended(self, binding: str, row: Row | None) -> "_JoinedRow":
        parts = dict(self.parts)
        parts[binding] = row
        return _JoinedRow(parts)


class _LayoutView:
    """Lazy name->value view over joined-row parts, driven by a layout map.

    Implements just the mapping surface :class:`Scope` touches
    (``in`` / ``[]``), resolving each lookup through ``layout`` as
    ``name -> (binding, column)`` and reading the addressed part row.
    """

    __slots__ = ("_layout", "_parts")

    def __init__(self, layout: dict[str, tuple[str, str]], parts):
        self._layout = layout
        self._parts = parts

    def __contains__(self, key: str) -> bool:
        return key in self._layout

    def __getitem__(self, key: str) -> Any:
        binding, column = self._layout[key]
        row = self._parts.get(binding)
        return None if row is None else row.get(column)


class _ScopeLayout:
    """Precomputed column layout for a set of sources.

    Building a :class:`Scope` per row previously rebuilt qualified and
    unqualified value dicts over every column of every source — O(total
    columns) per row (and per candidate join pair). The layout computes the
    name-resolution maps once per relation shape; per-row scopes are then
    O(1) views that fetch values on demand.
    """

    __slots__ = ("outer", "ambiguous", "_qualified", "_unqualified")

    def __init__(self, sources: list[_Source], outer: Scope | None):
        qualified: dict[str, tuple[str, str]] = {}
        by_name: dict[str, list[tuple[str, str]]] = {}
        for source in sources:
            binding = source.binding
            for col in source.columns:
                qualified[f"{binding.lower()}.{col.lower()}"] = (binding, col)
                by_name.setdefault(col.lower(), []).append((binding, col))
        self.outer = outer
        self.ambiguous = frozenset(
            name for name, refs in by_name.items() if len(refs) > 1
        )
        self._qualified = qualified
        self._unqualified = {
            name: refs[0] for name, refs in by_name.items() if len(refs) == 1
        }

    def scope(self, jr: _JoinedRow) -> Scope:
        return self.scope_parts(jr.parts)

    def scope_parts(self, parts) -> Scope:
        return Scope(
            _LayoutView(self._qualified, parts),
            _LayoutView(self._unqualified, parts),
            self.ambiguous,
            self.outer,
        )


class _TupleRow:
    """Mapping-shaped row over a result tuple plus a shared name->index map.

    Derived sources (subqueries, views) used to copy every result row into
    a fresh ``dict(zip(columns, row))`` that downstream operators then
    re-walked one lookup at a time; this view keeps the tuple and shares a
    single index map across every row of the source. Duplicate output
    names resolve to the last occurrence, matching the dict they replace.
    """

    __slots__ = ("_index", "_values")

    def __init__(self, index: dict[str, int], values: tuple):
        self._index = index
        self._values = values

    def get(self, column: str) -> Any:
        i = self._index.get(column)
        return None if i is None else self._values[i]


def _tuple_rows(columns: list[str], rows: list[tuple]) -> "list[_TupleRow]":
    index = {name: i for i, name in enumerate(columns)}
    return [_TupleRow(index, row) for row in rows]


class _BatchRowView:
    """Mapping-shaped view of one row of a column batch.

    Stands in for a row dict inside joined-row ``parts`` so per-row
    fallback evaluation on the batch path (subquery-bearing predicates,
    interpreter mode) reads straight from the batch's column lists —
    ``columns`` and ``index`` are re-pointed by the pipeline as it walks.
    Columns the statement never references are not materialized and so
    read as missing; the batch pipeline materializes *every* column
    whenever static reference analysis bails (stars, subqueries), which
    is exactly when an unlisted name could be read.
    """

    __slots__ = ("columns", "index")

    def __init__(self):
        self.columns: dict[str, list] = {}
        self.index = 0

    def get(self, column: str) -> Any:
        col = self.columns.get(column)
        return col[self.index] if col is not None else None


class _PartsBatch:
    """A chunk of row-shaped elements presented to compiled kernels as a
    column batch.

    ``parts_of(element)`` is an element's joined-row parts mapping
    (binding -> row or ``None``), so a slice of a joined relation, of
    hash-join candidate pairs or of single-table rows is one batch; a
    column is extracted from the part rows on first reference and only if
    the predicate references it. The mappings are asked for per column
    rather than kept: a chunk's worth of live per-row dicts is what tips
    the cyclic collector into extra passes over the whole heap."""

    __slots__ = ("length", "_elements", "_parts_of", "_columns")

    def __init__(self, elements: list, parts_of):
        self.length = len(elements)
        self._elements = elements
        self._parts_of = parts_of
        self._columns: dict[tuple[str, str], list] = {}

    def column(self, binding: str, name: str) -> list:
        col = self._columns.get((binding, name))
        if col is None:
            parts_of = self._parts_of
            col = self._columns[(binding, name)] = [
                None if (row := parts_of(e).get(binding)) is None else row.get(name)
                for e in self._elements
            ]
        return col


_joined_parts = attrgetter("parts")


def _batch_layout_resolver(layout: _ScopeLayout):
    """Column resolver for :func:`compile_batch_expr` over a scope layout.

    Resolution happens once at compile time; the returned accessors read
    the addressed column of a batch directly (``batch.column(binding,
    name)`` — a heap :class:`RowBatch` or a :class:`_PartsBatch` chunk),
    with no per-row scope object and no per-lookup name formatting. Names
    the layout cannot resolve compile to columns of *deferred* errors
    (:func:`batch_raiser`) carrying the interpreter's exact error: a
    short-circuiting AND may never consume those elements, and "no rows
    evaluated, no error" must hold. The exception is a layout with an
    outer scope: there the name may be a correlated reference, so
    compilation bails to the interpreter via :class:`CannotCompile`."""
    qualified = layout._qualified
    unqualified = layout._unqualified
    ambiguous = layout.ambiguous
    has_outer = layout.outer is not None

    def resolve(ref: ast.ColumnRef):
        if ref.table is not None:
            target = qualified.get(f"{ref.table.lower()}.{ref.name.lower()}")
        else:
            name = ref.name.lower()
            if name in ambiguous:
                return batch_raiser(
                    UnknownColumnError(
                        f"column reference {ref.name!r} is ambiguous"
                    )
                )
            target = unqualified.get(name)
        if target is None:
            if has_outer:
                raise CannotCompile
            return batch_raiser(
                UnknownColumnError(f"column {ref} does not exist")
            )
        binding, column = target

        def accessor(batch, binding=binding, column=column):
            return batch.column(binding, column)

        return accessor

    return resolve


def _collect_column_refs(expr: ast.Expr | None, out: set[str]) -> bool:
    """Collect lowercased column names ``expr`` references into ``out``.

    Returns False when the reference set is not statically determinable
    (stars, subqueries, unknown node kinds) — the batch pipeline then
    materializes every column. ``COUNT(*)`` is the deliberate exception:
    its star touches no concrete column, and it is the scan shape the
    batch path exists to accelerate."""
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


def _raise_first_batch_error(columns: list[list]) -> None:
    """Raise the deferred error the row plan would have hit first.

    The row path walks rows outermost and select items innermost, so the
    first error it raises is the minimum (row, item) pair in lexicographic
    order; within one item column only the earliest row can win."""
    best: "tuple[int, int, BatchError] | None" = None
    for c, col in enumerate(columns):
        for r, v in enumerate(col):
            if type(v) is BatchError:
                if best is None or (r, c) < (best[0], best[1]):
                    best = (r, c, v)
                break
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
        def run_subquery(sub: ast.SelectStatement, scope: Scope) -> list[tuple]:
            _, sub_rows = self._run_select(sub, session, outer=scope)
            return sub_rows

        evaluator = Evaluator(run_subquery)
        stmt = plan.stmt
        aggregates = plan.aggregates
        grouped = plan.grouped
        order_insensitive = _order_insensitive_output(stmt, aggregates)
        where_handled = False
        order_handled = False
        first = plan.scans[0] if plan.scans else None

        if first is not None and first.batched:
            # column-batch (vectorized) pipeline: single-table statements
            # run batch-at-a-time over RowBatch column slices, amortizing
            # interpreter dispatch across ~batch_size rows instead of
            # paying it per row. Produces the same (columns, rows, order
            # keys) triple the row path below would; the shared tail
            # (DISTINCT, set ops, ORDER BY, OFFSET/LIMIT) is untouched
            out_columns, out_rows, order_keys = self._run_select_batched(
                plan, outer, evaluator, order_insensitive, run_subquery
            )
        else:
            if first is not None and first.kind == "ordered":
                # rows arrive from the sorted index in ORDER BY order with
                # WHERE already applied: no filter, no sort below
                all_sources = [self._ordered_scan(plan, outer, evaluator)]
                joined = [
                    _JoinedRow({first.binding: row})
                    for row in all_sources[0].rows
                ]
                where_handled = True
                order_handled = True
            else:
                # fold sources one at a time (hash-joining on ON / WHERE
                # equi conjuncts where planned) instead of materializing
                # the full cross product
                all_sources = []
                joined = [_JoinedRow({})]
                for position, scan in enumerate(plan.scans):
                    source = self._scan_source(
                        scan, session, outer, order_insensitive
                    )
                    if position:
                        joined = self._join_relation(
                            joined, all_sources, source,
                            plan.joins[position - 1], evaluator, outer,
                        )
                    else:
                        joined = [
                            _JoinedRow({source.binding: row})
                            for row in source.rows
                        ]
                    all_sources.append(source)

            layout = _ScopeLayout(all_sources, outer)
            make_scope = layout.scope

            if stmt.where is not None and not where_handled:
                joined = list(
                    self._filter(
                        stmt.where, layout, joined, _joined_parts, evaluator
                    )
                )

            # expand stars into concrete items
            items = expand_items(stmt.items, all_sources)
            out_columns = [
                item_name(item, index) for index, item in enumerate(items)
            ]

            if grouped:
                out_rows, order_keys = self._run_grouped(
                    stmt, items, joined, make_scope, evaluator, aggregates,
                    run_subquery,
                )
            else:
                out_rows = []
                order_keys = []
                for jr in joined:
                    scope = make_scope(jr)
                    out_rows.append(
                        tuple(
                            evaluator.evaluate(item.expr, scope)
                            for item in items
                        )
                    )
                    if stmt.order_by and not order_handled:
                        order_keys.append(
                            self._order_key(
                                stmt.order_by, items, out_rows[-1], scope,
                                evaluator,
                            )
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
            order_keys = []

        if order_handled:
            pass  # rows arrived in ORDER BY order from the sorted index
        elif stmt.order_by and order_keys:
            bound = None
            if stmt.limit is not None and self.db.planner_options.get(
                "enable_topn", True
            ):
                bound = stmt.limit + (stmt.offset or 0)
            if bound is not None and bound < len(out_rows):
                # bounded top-N: heapq.nsmallest with a key is documented
                # equivalent to sorted(...)[:n] (stable on equal keys), so
                # this returns the same rows in the same order without
                # sorting the discarded tail
                self.db.bump_planner_stat("topn_limits")
                paired = heapq.nsmallest(
                    bound, zip(order_keys, out_rows), key=lambda p: p[0]
                )
            else:
                paired = sorted(zip(order_keys, out_rows), key=lambda p: p[0])
            out_rows = [row for _, row in paired]
        elif stmt.order_by and not order_keys and out_rows:
            # set-op result ordered by ordinal/alias only
            out_rows = self._order_by_output(stmt.order_by, out_columns, out_rows)

        offset = stmt.offset or 0
        if offset:
            out_rows = out_rows[offset:]
        if stmt.limit is not None:
            out_rows = out_rows[: stmt.limit]

        return out_columns, out_rows

    def _run_grouped(
        self, stmt, items, joined, make_scope, evaluator, aggregates, run_subquery
    ) -> tuple[list[tuple], list[tuple]]:
        # bucket rows by group-by key
        groups: dict[tuple, list] = {}
        group_order: list[tuple] = []
        for jr in joined:
            scope = make_scope(jr)
            if stmt.group_by:
                key_values = tuple(
                    evaluator.evaluate(g, scope) for g in stmt.group_by
                )
                key = tuple(
                    _NULL_SENTINEL if v is None else (type(v).__name__, v)
                    for v in key_values
                )
            else:
                key = ()
            if key not in groups:
                groups[key] = []
                group_order.append(key)
            groups[key].append(jr)

        if not stmt.group_by and not groups:
            groups[()] = []
            group_order.append(())

        out_rows: list[tuple] = []
        order_keys: list[tuple] = []
        for key in group_order:
            members = groups[key]
            computed: dict[int, Any] = {}
            for agg in aggregates:
                acc = make_aggregate(agg.name, agg.distinct)
                star = bool(agg.args) and isinstance(agg.args[0], ast.Star)
                if agg.name == "COUNT" and (star or not agg.args):
                    for _ in members:
                        acc.add(1)
                else:
                    if not agg.args:
                        raise ExecutionError(f"{agg.name}() requires an argument")
                    for jr in members:
                        acc.add(evaluator.evaluate(agg.args[0], make_scope(jr)))
                computed[id(agg)] = acc.result()
            agg_eval = _AggregateEvaluator(run_subquery, computed)
            rep_scope = (
                make_scope(members[0])
                if members
                else Scope({}, {}, frozenset(), None)
            )
            if stmt.having is not None and not agg_eval.evaluate_predicate(
                stmt.having, rep_scope
            ):
                continue
            row = tuple(agg_eval.evaluate(item.expr, rep_scope) for item in items)
            out_rows.append(row)
            if stmt.order_by:
                order_keys.append(
                    self._order_key(stmt.order_by, items, row, rep_scope, agg_eval)
                )
        return out_rows, order_keys

    def _join_relation(
        self, left_rows, left_sources, right, plan: JoinPlan, evaluator, outer
    ) -> list[_JoinedRow]:
        """Fold ``right`` onto the joined relation using the planned strategy."""
        trace = self.db.tracer.current()
        started = perf_counter() if trace is not None else 0.0
        if plan.strategy == "hash":
            self.db.bump_planner_stat("hash_joins")
            result = self._hash_join(
                left_rows, left_sources, right, plan, evaluator, outer
            )
        elif plan.strategy == "cross":
            result = [
                jr.extended(right.binding, row)
                for jr in left_rows
                for row in right.rows
            ]
        else:
            self.db.bump_planner_stat("nested_loop_joins")
            result = self._nested_loop_join(
                left_rows, left_sources, right, plan.kind, plan.condition,
                evaluator, outer,
            )
        if trace is not None:
            trace.record_join(plan, len(result), perf_counter() - started)
        return result

    @staticmethod
    def _join_key_valid(key: tuple) -> bool:
        # SQL equality is never true against NULL; NaN != NaN guards the
        # dict-identity shortcut that would otherwise match a shared object
        return not any(v is None or v != v for v in key)

    def _hash_join(
        self, left_rows, left_sources, right, plan: JoinPlan, evaluator, outer
    ) -> list[_JoinedRow]:
        right_binding = right.binding
        right_key_columns = [k.right_column for k in plan.keys]
        left_key_columns = [(k.left_binding, k.left_column) for k in plan.keys]

        buckets: dict[tuple, list[tuple[int, Row]]] = {}
        for index, row in enumerate(right.rows):
            key = tuple(row.get(c) for c in right_key_columns)
            if self._join_key_valid(key):
                buckets.setdefault(key, []).append((index, row))

        # probe: candidate pairs in probe order, each already folded into
        # its joined row; ``lefts`` / ``rights`` keep each pair's left
        # position and right index for the LEFT / RIGHT bookkeeping below
        pairs: list[_JoinedRow] = []
        lefts: list[int] = []
        rights: list[int] = []
        empty: list = []
        for position, jr in enumerate(left_rows):
            parts = jr.parts
            key = tuple(
                None if (row := parts.get(binding)) is None else row.get(column)
                for binding, column in left_key_columns
            )
            if self._join_key_valid(key):
                for index, right_row in buckets.get(key, empty):
                    pairs.append(jr.extended(right_binding, right_row))
                    lefts.append(position)
                    rights.append(index)
        kept = range(len(pairs))
        if plan.residual is not None:
            # raises for the first erroring pair in probe order
            kept = list(
                self._filter(
                    plan.residual,
                    _ScopeLayout(left_sources + [right], outer),
                    kept,
                    lambda pair: pairs[pair].parts,
                    evaluator,
                )
            )

        # NULL extension is decided after the residual: a left (right) row
        # none of whose pairs survived it counts as unmatched
        kind = plan.kind
        if kind == "LEFT":
            result: list[_JoinedRow] = []
            unmatched_from = 0  # first left position not yet emitted
            for pair in kept:
                for skipped in range(unmatched_from, lefts[pair]):
                    result.append(left_rows[skipped].extended(right_binding, None))
                unmatched_from = lefts[pair] + 1
                result.append(pairs[pair])
            for skipped in range(unmatched_from, len(left_rows)):
                result.append(left_rows[skipped].extended(right_binding, None))
        else:
            result = [pairs[pair] for pair in kept]
        if kind == "RIGHT":
            matched_rights = {rights[pair] for pair in kept}
            empty_left = _JoinedRow(
                {source.binding: None for source in left_sources}
            )
            for index, row in enumerate(right.rows):
                if index not in matched_rights:
                    result.append(empty_left.extended(right_binding, row))
        return result

    def _nested_loop_join(
        self, left_rows, left_sources, right, kind, condition, evaluator, outer
    ) -> list[_JoinedRow]:
        if kind not in ("INNER", "LEFT", "RIGHT"):
            raise ExecutionError(f"unsupported join kind {kind}")
        layout = _ScopeLayout(left_sources + [right], outer)
        binding = right.binding
        result: list[_JoinedRow] = []
        matched_rights: set[int] = set()
        for jr in left_rows:
            # one scratch parts mapping (and one scope over it) per left
            # row; the right slot is re-pointed per candidate pair
            parts = dict(jr.parts)
            scope = layout.scope_parts(parts)
            matched = False
            for index, row in enumerate(right.rows):
                parts[binding] = row
                if evaluator.evaluate_predicate(condition, scope):
                    result.append(jr.extended(binding, row))
                    matched = True
                    matched_rights.add(index)
            if kind == "LEFT" and not matched:
                result.append(jr.extended(binding, None))
        if kind == "RIGHT":
            empty_left = _JoinedRow(
                {source.binding: None for source in left_sources}
            )
            for index, row in enumerate(right.rows):
                if index not in matched_rights:
                    result.append(empty_left.extended(binding, row))
        return result

    def _scan_source(
        self,
        scan: ScanPlan,
        session: "Session",
        outer: Scope | None,
        order_insensitive: bool = False,
    ) -> _Source:
        """Materialize one planned source for the row fold."""
        trace = self.db.tracer.current()
        started = perf_counter() if trace is not None else 0.0
        if scan.child is not None:  # view or derived table
            columns, result_rows = self._run_plan(scan.child, session, outer)
            rows = _tuple_rows(columns, result_rows)
        elif scan.path is None:  # observability system view
            columns, rows = system_view_rows(self.db, scan.name)
        else:
            columns, heap = scan.columns, scan.heap
            rids = self._path_rids(scan)
            if rids is None:
                # copy: live heap dicts are mutated in place by in-statement
                # schema changes and must not alias an in-flight scan
                rows = [dict(row) for _, row in heap.rows()]
            else:
                # probed rids come back in rid order so the source feeds
                # the pipeline exactly like a seq scan would — except when
                # the statement's output provably ignores row order (pure
                # COUNT aggregation), where the sort is skipped
                if not order_insensitive:
                    rids = sorted(rids)
                rows = []
                for rid in rids:
                    row = heap.get(rid)  # fetched once per rid
                    if row is not None:
                        rows.append(dict(row))
        resolved = _Source(scan.binding, columns, rows)
        examined = len(rows)
        if scan.filter is not None:
            self._prefilter_source(resolved, scan.filter)
        if trace is not None:
            trace.record_scan(
                scan, len(resolved.rows), examined, perf_counter() - started
            )
        return resolved

    def _path_rids(self, scan: ScanPlan) -> "list[int] | set[int] | None":
        """Candidate rids of a planned base-table scan (``None``: the whole
        heap), counting the access path in ``planner_stats``. Every path is
        a pure reduction — callers re-apply the full WHERE."""
        path, index = scan.path, scan.index
        self.db.bump_planner_stat(f"{path.kind}_scans")
        if path.kind == "index":
            return index.probe(scan.key)
        if path.kind == "range":
            rng = path.range
            return index.range_rids(
                path.prefix_values, rng.low, rng.high, rng.incl_low, rng.incl_high
            )
        if path.kind == "union":
            return self._union_rids(index, path.union)
        return None

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

    def _kernel(self, expr: ast.Expr, layout: _ScopeLayout):
        """``expr`` compiled to a batch kernel, or ``None`` when it needs
        the interpreter (subqueries, aggregates, possibly-correlated
        names) or ``enable_compiled_predicates`` is off."""
        if not self.db.planner_options.get("enable_compiled_predicates", True):
            return None
        return compile_batch_expr(expr, _batch_layout_resolver(layout))

    def _batch_size(self) -> int:
        size = self.db.planner_options.get("batch_size", DEFAULT_BATCH_SIZE)
        if not isinstance(size, int) or size <= 0:
            return DEFAULT_BATCH_SIZE
        return size

    def _filter(
        self,
        predicate: ast.Expr,
        layout: _ScopeLayout,
        elements,
        parts_of,
        evaluator: Evaluator,
        first_chunk: int | None = None,
        keep_errors=(),
    ):
        """The one predicate seam: yield, in order, the ``elements`` on
        which ``predicate`` is true (NULL counts as false).

        ``parts_of(element)`` is the element's joined-row parts mapping
        (binding -> row) under ``layout``. The predicate is compiled once
        per call — once per statement — and evaluated over chunks of at
        most ``batch_size`` elements (``first_chunk``, then doubling, for a
        consumer that may stop early); when it does not compile, or
        compiled predicates are off, every element goes through the
        interpreter instead. Either way an evaluation error surfaces only
        when the consumer reaches the erroring element, so a consumer that
        stops first never sees it; an erroring element whose error is one
        of ``keep_errors`` is kept rather than raised.
        """
        kernel = self._kernel(predicate, layout)
        if kernel is None:
            for element in elements:
                try:
                    keep = evaluator.evaluate_predicate(
                        predicate, layout.scope_parts(parts_of(element))
                    )
                except keep_errors:
                    keep = True
                if keep:
                    yield element
            return
        limit = self._batch_size()
        size = min(first_chunk or limit, limit)
        stream = iter(elements)
        while chunk := list(islice(stream, size)):
            mask = kernel(_PartsBatch(chunk, parts_of))
            for element, value in zip(chunk, mask):
                if value is True:
                    yield element
                elif type(value) is BatchError:
                    if not isinstance(value.exc, keep_errors):
                        raise value.exc
                    yield element
            size = min(size * 2, limit)

    def _ordered_scan(
        self, plan: SelectPlan, outer: Scope | None, evaluator: Evaluator
    ) -> _Source:
        """Run a single-table block through its planned ``ordered`` path.

        The sorted index yields rids in the statement's ORDER BY order (see
        :func:`repro.minidb.planner._ordered_path`); the returned source
        has the WHERE predicate already applied, stopping after
        OFFSET+LIMIT surviving rows — the early exit that makes
        ``ORDER BY ... LIMIT k`` O(k) instead of O(n log n). Rows past the
        exit are never evaluated, so a predicate whose error only a later
        row would trigger does not raise here — the planner's documented
        error-surfacing contract (see :mod:`repro.minidb.planner`), shared
        with every other row-pruning plan.
        """
        db = self.db
        stmt = plan.stmt
        scan = plan.scans[0]
        path, index, heap = scan.path, scan.index, scan.heap
        rng = path.range
        if rng is None:
            start, end = index.slice_bounds(path.prefix_values)
        else:
            start, end = index.slice_bounds(
                path.prefix_values, rng.low, rng.high, rng.incl_low, rng.incl_high
            )
        db.bump_planner_stat("ordered_scans")
        trace = db.tracer.current()
        started = perf_counter() if trace is not None else 0.0
        source = _Source(scan.binding, scan.columns, [])
        needed = (
            stmt.limit + (stmt.offset or 0) if stmt.limit is not None else None
        )
        binding = source.binding
        rows = source.rows
        fetched = 0

        def fetch():
            # (ordinal, row) in index order
            nonlocal fetched
            for rid in index.ordered_rids(
                path.reverse, start, end, path.prefix_values
            ):
                fetched += 1
                row = heap.get(rid)
                if row is not None:
                    yield fetched, dict(row)

        survivors = fetch()
        if stmt.where is not None:
            # chunks sized by what the statement still needs: the filter
            # runs ahead of the exit by less than it has already consumed,
            # and errors (and ``examined``) count consumed rows only
            survivors = self._filter(
                stmt.where,
                _ScopeLayout([source], outer),
                survivors,
                lambda element: {binding: element[1]},
                evaluator,
                first_chunk=needed,
            )
        examined = 0
        if needed != 0:
            for ordinal, row in survivors:
                rows.append(row)
                if needed is not None and len(rows) >= needed:
                    examined = ordinal  # rows fetched past the exit don't count
                    break
            else:
                examined = fetched
        if trace is not None:
            trace.record_scan(scan, len(rows), examined, perf_counter() - started)
        return source

    # ------------------------------------------------- column-batch pipeline

    @staticmethod
    def _referenced_columns(
        stmt: ast.SelectStatement, all_columns: list[str]
    ) -> list[str]:
        """Table columns the statement can touch, in schema order.

        Statically walks every expression position; whenever the
        reference set is not determinable (stars, subqueries) every
        column is materialized — exactly the cases where per-row
        fallback evaluation could read an arbitrary name."""
        refs: set[str] = set()
        exprs: list[ast.Expr | None] = [item.expr for item in stmt.items]
        exprs.append(stmt.where)
        exprs.extend(stmt.group_by)
        exprs.append(stmt.having)
        exprs.extend(order.expr for order in stmt.order_by)
        for expr in exprs:
            if not _collect_column_refs(expr, refs):
                return list(all_columns)
        return [c for c in all_columns if c.lower() in refs]

    def _run_select_batched(
        self,
        plan: SelectPlan,
        outer: Scope | None,
        evaluator: Evaluator,
        order_insensitive: bool,
        run_subquery,
    ) -> tuple[list[str], list[tuple], list[tuple]]:
        """Single-table SELECT over the column-batch pipeline.

        Scans the heap batch-at-a-time (through the same planned access
        path :meth:`_scan_source` would read), applies WHERE as a
        vectorized mask, and projects/aggregates over the surviving
        column slices. Anything the batch compiler punts on is evaluated
        per row *inside* the batch through a :class:`_BatchRowView`, so
        the pipeline shape is preserved even for interpreter-only
        expressions. Error surfacing follows the planner's documented
        contract: batch kernels defer per-element errors, and consumers
        raise the first deferred error in row-major order — the moment
        the row-at-a-time plan would have raised it. One divergence is
        pinned here: on an erroring WHERE the scan trace event reports
        only the batches examined before the error, where the row path
        (scan and filter being separate stages) would have reported the
        full table; statements that complete report identical events.
        """
        db = self.db
        stmt = plan.stmt
        scan = plan.scans[0]
        heap = scan.heap
        all_columns = scan.columns
        source = _Source(scan.binding, all_columns, [])
        layout = _ScopeLayout([source], outer)

        def batch_compile(expr):
            # with compiled predicates disabled (or an expression the
            # compiler punts on) this is None and the expression takes the
            # per-row interpreter fallback inside the batch
            return self._kernel(expr, layout)

        needed = self._referenced_columns(stmt, all_columns)
        view = _BatchRowView()
        parts: dict[str, Any] = {scan.binding: view}

        where = stmt.where
        batch_where = batch_compile(where) if where is not None else None

        # identical probe/range/union reductions to the row path (and the
        # same planner counters), with batch_scans recording that the scan
        # ran vectorized
        rids = self._path_rids(scan)
        db.bump_planner_stat("batch_scans")

        batch_size = self._batch_size()
        if rids is not None:
            rid_list = list(rids) if order_insensitive else sorted(rids)

            def rid_batches():
                for start in range(0, len(rid_list), batch_size):
                    yield heap.fetch_batch(
                        rid_list[start : start + batch_size], needed
                    )

            batch_iter = rid_batches()
        else:
            batch_iter = heap.rows_batch(batch_size, needed)

        trace = db.tracer.current()
        started = perf_counter() if trace is not None else 0.0
        sur_cols: dict[str, list] = {name: [] for name in needed}
        n_sur = 0
        examined = 0
        try:
            if where is None:
                for batch in batch_iter:
                    examined += batch.length
                    for name in needed:
                        sur_cols[name].extend(batch.columns[name])
                    n_sur += batch.length
            elif batch_where is not None:
                for batch in batch_iter:
                    examined += batch.length
                    mask = batch_where(batch)
                    keep: list[int] = []
                    append = keep.append
                    for i, v in enumerate(mask):
                        if v is True:
                            append(i)
                        elif type(v) is BatchError:
                            raise v.exc
                    if len(keep) == batch.length:
                        for name in needed:
                            sur_cols[name].extend(batch.columns[name])
                    elif keep:
                        for name in needed:
                            col = batch.columns[name]
                            sur_cols[name].extend([col[i] for i in keep])
                    n_sur += len(keep)
            else:
                # per-row fallback inside the batch: subqueries, or
                # compiled predicates disabled
                for batch in batch_iter:
                    examined += batch.length
                    view.columns = batch.columns
                    keep = []
                    for i in range(batch.length):
                        view.index = i
                        if evaluator.evaluate_predicate(
                            where, layout.scope_parts(parts)
                        ):
                            keep.append(i)
                    if len(keep) == batch.length:
                        for name in needed:
                            sur_cols[name].extend(batch.columns[name])
                    elif keep:
                        for name in needed:
                            col = batch.columns[name]
                            sur_cols[name].extend([col[i] for i in keep])
                    n_sur += len(keep)
        finally:
            if trace is not None:
                trace.record_scan(
                    scan, examined, examined, perf_counter() - started
                )

        items = expand_items(stmt.items, [source])
        out_columns = [
            item_name(item, index) for index, item in enumerate(items)
        ]
        sur_batch = RowBatch(None, sur_cols, n_sur)
        view.columns = sur_cols
        if plan.grouped:
            out_rows, order_keys = self._run_grouped_batched(
                stmt, items, sur_batch, view, parts, layout, evaluator,
                plan.aggregates, run_subquery, batch_compile,
            )
        else:
            out_rows, order_keys = self._project_batched(
                stmt, items, sur_batch, view, parts, layout, evaluator,
                batch_compile,
            )
        return out_columns, out_rows, order_keys

    def _project_batched(
        self, stmt, items, sur_batch, view, parts, layout, evaluator,
        batch_compile,
    ) -> tuple[list[tuple], list[tuple]]:
        """Ungrouped projection over surviving column slices — no per-row
        dict is ever built. All-vectorized select lists without ORDER BY
        transpose the item columns straight into output tuples."""
        n = sur_batch.length
        plans: list[tuple[bool, Any]] = []
        all_vec = True
        for item in items:
            fn = batch_compile(item.expr)
            if fn is not None:
                plans.append((True, fn(sur_batch)))
            else:
                all_vec = False
                plans.append((False, item.expr))
        if all_vec and not stmt.order_by:
            cols = [payload for _, payload in plans]
            _raise_first_batch_error(cols)
            return list(zip(*cols)) if n else [], []
        order_plans = (
            self._batched_order_plans(stmt.order_by, items, batch_compile, sur_batch)
            if stmt.order_by
            else None
        )
        scope = layout.scope_parts(parts)
        out_rows: list[tuple] = []
        order_keys: list[tuple] = []
        for i in range(n):
            view.index = i
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
            if order_plans is not None:
                order_keys.append(
                    self._batched_order_key(order_plans, row, i, scope, evaluator)
                )
        return out_rows, order_keys

    def _run_grouped_batched(
        self, stmt, items, sur_batch, view, parts, layout, evaluator,
        aggregates, run_subquery, batch_compile,
    ) -> tuple[list[tuple], list[tuple]]:
        """Grouped/aggregate evaluation over surviving column slices.

        Group keys come from vectorized key columns where compilable;
        groups hold member *indexes* into the slices, and each aggregate
        folds a column slice directly. Accumulation order (group, then
        aggregate, then member) matches :meth:`_run_grouped` exactly, so
        deferred errors surface at the same point the row path raises."""
        n = sur_batch.length
        scope = layout.scope_parts(parts)
        groups: dict[tuple, list[int]] = {}
        group_order: list[tuple] = []
        if stmt.group_by:
            key_plans: list[tuple[bool, Any]] = []
            for g in stmt.group_by:
                fn = batch_compile(g)
                if fn is not None:
                    key_plans.append((True, fn(sur_batch)))
                else:
                    key_plans.append((False, g))
            for i in range(n):
                view.index = i
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
                    group_order.append(key)
                members.append(i)
        elif n:
            groups[()] = list(range(n))
            group_order.append(())
        if not stmt.group_by and not groups:
            groups[()] = []
            group_order.append(())

        agg_plans: list[tuple[str, Any]] = []
        for agg in aggregates:
            star = bool(agg.args) and isinstance(agg.args[0], ast.Star)
            if agg.name == "COUNT" and (star or not agg.args):
                agg_plans.append(("count", None))
            elif not agg.args:
                agg_plans.append(("malformed", None))
            else:
                fn = batch_compile(agg.args[0])
                if fn is not None:
                    agg_plans.append(("vec", fn(sur_batch)))
                else:
                    agg_plans.append(("expr", agg.args[0]))

        out_rows: list[tuple] = []
        order_keys: list[tuple] = []
        for group_key in group_order:
            members = groups[group_key]
            computed: dict[int, Any] = {}
            for agg, (kind, payload) in zip(aggregates, agg_plans):
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
                        view.index = i
                        acc.add(evaluator.evaluate(payload, scope))
                computed[id(agg)] = acc.result()
            agg_eval = _AggregateEvaluator(run_subquery, computed)
            if members:
                view.index = members[0]
                rep_scope = scope
            else:
                rep_scope = Scope({}, {}, frozenset(), None)
            if stmt.having is not None and not agg_eval.evaluate_predicate(
                stmt.having, rep_scope
            ):
                continue
            row = tuple(agg_eval.evaluate(item.expr, rep_scope) for item in items)
            out_rows.append(row)
            if stmt.order_by:
                # not vectorized: aggregate references in ORDER BY need the
                # per-group _AggregateEvaluator, so reuse the row path's key
                order_keys.append(
                    self._order_key(stmt.order_by, items, row, rep_scope, agg_eval)
                )
        return out_rows, order_keys

    def _batched_order_plans(self, order_by, items, batch_compile, sur_batch):
        """Per-ORDER-BY-item plan mirroring :meth:`_order_value`'s
        resolution: ordinal, output-alias, vectorized column, or
        interpreted expression."""
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
            fn = batch_compile(expr)
            if fn is not None:
                plans.append(("vec", fn(sur_batch), order.descending))
            else:
                plans.append(("expr", expr, order.descending))
        return plans

    def _batched_order_key(self, plans, row, i, scope, evaluator) -> tuple:
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
            element = _sort_key_element(value)
            if descending:
                element = (element[0], _Reversed(element[1]), _Reversed(element[2]))
            key_parts.append(element)
        return tuple(key_parts)

    def _prefilter_source(self, source: _Source, predicate: ast.Expr) -> None:
        """Apply pushed-down null-rejecting single-source conjuncts in place.

        A row whose conjunct raised an :class:`ExecutionError` (e.g. a
        type-mismatched ordering) is kept and deferred to the final WHERE
        pass: it raises only if the row survives the joins, exactly as
        without pushdown. Any other error propagates."""
        binding = source.binding
        source.rows = list(
            self._filter(
                predicate,
                _ScopeLayout([source], None),
                source.rows,
                lambda row: {binding: row},
                Evaluator(None),  # pushdown conjuncts are subquery-free
                keep_errors=ExecutionError,
            )
        )

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

    def _order_key(self, order_by, items, row, scope, evaluator) -> tuple:
        key_parts = []
        for order in order_by:
            value = self._order_value(order.expr, items, row, scope, evaluator)
            element = _sort_key_element(value)
            if order.descending:
                # keep the NULL/type rank ascending (NULLS LAST either way),
                # reverse only the value ordering within each type class
                element = (element[0], _Reversed(element[1]), _Reversed(element[2]))
            key_parts.append(element)
        return tuple(key_parts)

    def _order_value(self, expr, items, row, scope, evaluator):
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            ordinal = expr.value
            if not (1 <= ordinal <= len(row)):
                raise ExecutionError(f"ORDER BY position {ordinal} is out of range")
            return row[ordinal - 1]
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            for index, item in enumerate(items):
                if item.alias and item.alias.lower() == expr.name.lower():
                    return row[index]
        return evaluator.evaluate(expr, scope)

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
                element = _sort_key_element(value)
                if order.descending:
                    element = (element[0], _Reversed(element[1]), _Reversed(element[2]))
                parts.append(element)
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
        heap = self.db.heap(schema.name)
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
        redo = session.tx.redo_enabled
        table_key = schema.name.lower()
        for values in value_rows:
            if len(values) != len(target_columns):
                raise ExecutionError(
                    f"INSERT has {len(values)} values but {len(target_columns)} "
                    "target columns"
                )
            row = self._build_row(schema, dict(zip(target_columns, values)), evaluator)
            self._check_row_constraints(schema, row, evaluator, session)
            rid = heap.insert(row)
            session.tx.log_undo(
                f"insert {schema.name} rid={rid}",
                lambda heap=heap, rid=rid: heap.delete(rid),
            )
            if redo:
                session.tx.log_redo(
                    {
                        "op": "insert",
                        "table": table_key,
                        "rid": rid,
                        "row": row,
                        "uid": heap.uid,
                        "version": heap.version,
                    }
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
        index = ref_heap.find_index(tuple(fk.ref_columns))
        if index is not None:
            if index.probe(values):
                return
        else:
            for _, ref_row in ref_heap.rows():
                if tuple(ref_row.get(c) for c in fk.ref_columns) == values:
                    return
        raise ForeignKeyViolation(
            f"insert or update violates foreign key constraint: "
            f"({', '.join(fk.columns)})={values!r} is not present in "
            f"{fk.ref_table}({', '.join(fk.ref_columns)})"
        )

    def _referencing_violation(
        self, schema: TableSchema, old_row: Row, session: "Session"
    ) -> str | None:
        """If rows elsewhere reference ``old_row``, return a message."""
        for other_name in self.db.catalog.referencing_tables(schema.name):
            other = self.db.catalog.table(other_name)
            other_heap = self.db.heap(other.name)
            for fk in other.foreign_keys:
                if fk.ref_table.lower() != schema.name.lower():
                    continue
                key = tuple(old_row.get(c) for c in fk.ref_columns)
                if any(v is None for v in key):
                    continue
                for _, row in other_heap.rows():
                    if tuple(row.get(c) for c in fk.columns) == key:
                        return (
                            f"row in {schema.name!r} is still referenced by "
                            f"table {other.name!r}"
                        )
        return None

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

        updated = 0
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
                message = self._referencing_violation(schema, old_row, session)
                if message:
                    raise ForeignKeyViolation(message)
            previous = heap.update(rid, new_row)
            session.tx.log_undo(
                f"update {schema.name} rid={rid}",
                lambda heap=heap, rid=rid, prev=previous: heap.update(rid, prev),
            )
            if session.tx.redo_enabled:
                session.tx.log_redo(
                    {
                        "op": "update",
                        "table": schema.name.lower(),
                        "rid": rid,
                        "row": new_row,
                        "uid": heap.uid,
                        "version": heap.version,
                    }
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

        for _rid, row in targets:
            message = self._referencing_violation(schema, row, session)
            if message:
                raise ForeignKeyViolation(message)

        deleted = 0
        for rid, _row in targets:
            old = heap.delete(rid)
            session.tx.log_undo(
                f"delete {schema.name} rid={rid}",
                lambda heap=heap, rid=rid, old=old: heap.restore(rid, old),
            )
            if session.tx.redo_enabled:
                session.tx.log_redo(
                    {
                        "op": "delete",
                        "table": schema.name.lower(),
                        "rid": rid,
                        "uid": heap.uid,
                        "version": heap.version,
                    }
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
        rids = self._path_rids(plan_table_scan(self.db, schema, binding, where))
        if rids is None:
            candidates = list(heap.rows())
        else:
            candidates = []
            for rid in sorted(rids):
                row = heap.get(rid)
                if row is not None:
                    candidates.append((rid, row))
        if where is None:
            return candidates
        return list(
            self._filter(
                where,
                _ScopeLayout([_Source(binding, schema.column_names(), [])], None),
                candidates,
                lambda candidate: {binding: candidate[1]},
                evaluator,
            )
        )

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

        catalog.add_table(schema)
        heap = HeapTable(schema.name)
        if schema.primary_key:
            heap.add_index(
                HashIndex(f"pk_{schema.name}", tuple(schema.primary_key), unique=True)
            )
        for index_number, unique in enumerate(schema.uniques):
            heap.add_index(
                HashIndex(f"uq_{schema.name}_{index_number}", unique, unique=True)
            )
        self.db.heaps[schema.name.lower()] = heap

        session.tx.log_undo(
            f"create table {schema.name}",
            lambda db=self.db, name=schema.name: db.drop_table_physical(name),
        )
        if session.tx.redo_enabled:
            session.tx.log_redo(
                {
                    "op": "create_table",
                    "table": schema.name.lower(),
                    "schema": dump_table_schema(schema),
                    "indexes": [
                        dump_index(ix) for ix in heap.indexes.values()
                    ],
                    "uid": heap.uid,
                    "version": heap.version,
                }
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
                view = catalog.remove_view(name)
                session.tx.log_undo(
                    f"drop view {name}",
                    lambda catalog=catalog, view=view: catalog.add_view(view),
                )
                if session.tx.redo_enabled:
                    session.tx.log_redo({"op": "drop_view", "view": view.name})
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
                schema = catalog.remove_table(table_name)
                heap = self.db.heaps.pop(table_name.lower())
                dropped_indexes = [
                    catalog.remove_index(ix.name)
                    for ix in catalog.indexes_on(table_name)
                ]
                session.tx.log_undo(
                    f"drop table {table_name}",
                    lambda db=self.db,
                    schema=schema,
                    heap=heap,
                    dropped=dropped_indexes: db.restore_table(schema, heap, dropped),
                )
                if session.tx.redo_enabled:
                    session.tx.log_redo(
                        {"op": "drop_table", "table": schema.name.lower()}
                    )
        return ResultSet(status="DROP TABLE")

    def _exec_AlterTableStatement(
        self, stmt: ast.AlterTableStatement, session: "Session"
    ) -> ResultSet:
        catalog = self.db.catalog
        session.lock_table(stmt.table, "X")
        schema = catalog.table(stmt.table)
        heap = self.db.heap(schema.name)
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
            if cdef.not_null and default is None and len(heap):
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
            schema.columns.append(column)
            heap.add_column(column.name, default)
            session.tx.log_undo(
                f"add column {schema.name}.{column.name}",
                lambda schema=schema, heap=heap, column=column: (
                    schema.columns.remove(column),
                    heap.drop_column(column.name),
                ),
            )
            if session.tx.redo_enabled:
                session.tx.log_redo(
                    {
                        "op": "add_column",
                        "table": schema.name.lower(),
                        "column": dump_column(column),
                        "fill": default,
                        "uid": heap.uid,
                        "version": heap.version,
                    }
                )
            return ResultSet(status="ALTER TABLE")
        if stmt.action == "DROP_COLUMN":
            column = schema.column(stmt.old_name or "")
            if column.name in schema.primary_key:
                raise ExecutionError("cannot drop a primary key column")
            saved_values = {
                rid: row.get(column.name) for rid, row in heap.rows()
            }
            index = schema.columns.index(column)
            schema.columns.remove(column)
            heap.drop_column(column.name)

            def undo(schema=schema, heap=heap, column=column, index=index,
                     values=saved_values):
                schema.columns.insert(index, column)
                heap.restore_column(column.name, values)

            session.tx.log_undo(f"drop column {schema.name}.{column.name}", undo)
            if session.tx.redo_enabled:
                session.tx.log_redo(
                    {
                        "op": "drop_column",
                        "table": schema.name.lower(),
                        "column": column.name,
                        "uid": heap.uid,
                        "version": heap.version,
                    }
                )
            return ResultSet(status="ALTER TABLE")
        if stmt.action == "RENAME_COLUMN":
            column = schema.column(stmt.old_name or "")
            if schema.has_column(stmt.new_name or ""):
                raise ExecutionError(f"column {stmt.new_name!r} already exists")
            old_name, new_name = column.name, stmt.new_name or ""
            catalog.rename_column(schema.name, old_name, new_name)
            heap.rename_column(old_name, new_name)

            def undo_rename(catalog=catalog, heap=heap, table=schema.name,
                            old=old_name, new=new_name):
                heap.rename_column(new, old)
                catalog.rename_column(table, new, old)

            session.tx.log_undo(
                f"rename column {schema.name}.{old_name}", undo_rename
            )
            if session.tx.redo_enabled:
                session.tx.log_redo(
                    {
                        "op": "rename_column",
                        "table": schema.name.lower(),
                        "old": old_name,
                        "new": new_name,
                        "uid": heap.uid,
                        "version": heap.version,
                    }
                )
            return ResultSet(status="ALTER TABLE")
        if stmt.action == "RENAME_TABLE":
            old_name = schema.name
            new_name = stmt.new_name or ""
            catalog.rename_table(old_name, new_name)
            self.db.heaps[new_name.lower()] = self.db.heaps.pop(old_name.lower())
            session.tx.log_undo(
                f"rename table {old_name}",
                lambda db=self.db, old=old_name, new=new_name: (
                    db.catalog.rename_table(new, old),
                    db.heaps.__setitem__(old.lower(), db.heaps.pop(new.lower())),
                ),
            )
            if session.tx.redo_enabled:
                session.tx.log_redo(
                    {"op": "rename_table", "old": old_name, "new": new_name}
                )
            return ResultSet(status="ALTER TABLE")
        raise ExecutionError(f"unsupported ALTER TABLE action {stmt.action}")

    def _exec_CreateIndexStatement(
        self, stmt: ast.CreateIndexStatement, session: "Session"
    ) -> ResultSet:
        catalog = self.db.catalog
        # lock before the IF NOT EXISTS probe: racing creators on the
        # same table serialize here, so the loser sees "(exists)" instead
        # of a duplicate-index error (and the schema is the post-lock
        # one). Creators on *different* tables hold non-conflicting
        # locks — their name race is settled by add_index's atomic
        # check-then-set, caught below.
        schema = self._locked_table(session, stmt.table, "X")
        if stmt.if_not_exists and stmt.name.lower() in catalog.indexes:
            return ResultSet(status="CREATE INDEX (exists)")
        for name in stmt.columns:
            schema.column(name)
        kind = "btree" if (stmt.using or "").upper() == "BTREE" else "hash"
        index_schema = IndexSchema(
            stmt.name, schema.name, tuple(stmt.columns), stmt.unique, kind=kind
        )
        try:
            catalog.add_index(index_schema)
        except DuplicateObjectError:
            if stmt.if_not_exists:
                # lost a cross-table name race after the probe: same
                # contract as losing the probe itself
                return ResultSet(status="CREATE INDEX (exists)")
            raise
        heap = self.db.heap(schema.name)
        index_cls = SortedIndex if kind == "btree" else HashIndex
        index = index_cls(stmt.name, tuple(stmt.columns), stmt.unique)
        try:
            heap.add_index(index)
        except Exception:
            catalog.remove_index(stmt.name)
            raise
        session.tx.log_undo(
            f"create index {stmt.name}",
            lambda catalog=catalog, heap=heap, name=stmt.name: (
                catalog.remove_index(name),
                heap.drop_index(name),
            ),
        )
        if session.tx.redo_enabled:
            session.tx.log_redo(
                {
                    "op": "create_index",
                    "table": schema.name.lower(),
                    "index": dump_index(index),
                    "uid": heap.uid,
                    "version": heap.version,
                }
            )
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
        index_schema = catalog.remove_index(stmt.name)
        heap = self.db.heap(index_schema.table)
        index = heap.drop_index(index_schema.name)
        session.tx.log_undo(
            f"drop index {stmt.name}",
            lambda catalog=catalog, heap=heap, ix=index_schema, index=index: (
                catalog.add_index(ix),
                heap.attach_index(index),
            ),
        )
        if session.tx.redo_enabled:
            session.tx.log_redo(
                {
                    "op": "drop_index",
                    "table": index_schema.table.lower(),
                    "index": index_schema.name,
                    "uid": heap.uid,
                    "version": heap.version,
                }
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
            heap = self.db.heap(schema.name)
            stats = build_table_statistics(schema, heap)
            key = schema.name.lower()
            previous = catalog.statistics.get(key)

            def undo(catalog=catalog, key=key, previous=previous):
                if previous is None:
                    catalog.statistics.pop(key, None)
                else:
                    catalog.statistics[key] = previous

            catalog.statistics[key] = stats
            session.tx.log_undo(f"analyze {schema.name}", undo)
            if session.tx.redo_enabled:
                # the *computed* payload travels in the WAL, so replay
                # restores the exact statistics without rescanning heaps
                session.tx.log_redo(
                    {"op": "analyze", "table": key, "stats": stats.to_payload()}
                )
            analyzed += 1
        return ResultSet(status=f"ANALYZE {analyzed}")

    def _exec_CreateViewStatement(
        self, stmt: ast.CreateViewStatement, session: "Session"
    ) -> ResultSet:
        session.lock_table(stmt.name, "X")
        # the rendered definition round-trips through the parser, which is
        # both the catalog's human-readable DDL and the WAL representation
        view = ViewSchema(
            stmt.name, stmt.select, source_sql=select_to_sql(stmt.select)
        )
        replaced = (
            self.db.catalog.views.get(stmt.name.lower()) if stmt.or_replace else None
        )
        self.db.catalog.add_view(view, replace=stmt.or_replace)

        def undo(catalog=self.db.catalog, name=stmt.name, replaced=replaced):
            catalog.remove_view(name)
            if replaced is not None:
                catalog.add_view(replaced)

        session.tx.log_undo(f"create view {stmt.name}", undo)
        if session.tx.redo_enabled:
            session.tx.log_redo(
                {
                    "op": "create_view",
                    "view": stmt.name,
                    "sql": view.source_sql,
                    "or_replace": stmt.or_replace,
                }
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
            view = self.db.catalog.remove_view(name)
            session.tx.log_undo(
                f"drop view {name}",
                lambda catalog=self.db.catalog, view=view: catalog.add_view(view),
            )
            if session.tx.redo_enabled:
                session.tx.log_redo({"op": "drop_view", "view": view.name})
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
