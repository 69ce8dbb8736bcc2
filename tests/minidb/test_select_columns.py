"""Oracle for the SELECT operators after the scan: every expression
position is a column.

Select items, ORDER BY keys, GROUP BY keys, aggregate arguments and
predicates are each one column of the relation — a batch kernel's output
or, where the expression does not compile, the interpreter's, under the
same deferred-error contract — and ORDER BY keys come from one resolver
and one key builder. Before that, projection had a vectorized path and a
per-row path, ORDER BY had four key builders (vectorized key columns,
per-row key tuples, grouped key tuples, set-operation output keys), and
group keys, aggregate arguments and the predicate seam each branched per
row between a kernel column and the interpreter. Those methods are
copied below verbatim (re-homed on a subclass, module helpers renamed)
as the reference executor; since the binder resolves every name before
any row, they read names through the statement's slots (a
:class:`Scope`) where they read the planner's resolver, an empty
group's bare column reads NULL where it used to find no name, and a set
operation's ORDER BY keys, which name output columns, are no longer also
evaluated over the left arm's rows.

Hypothesis draws tables with NULLs and NaN, a few cells perturbed out of
their column's class (a bool or text among ints, -0.0 or ints beyond
2**53 among floats), and statements over them: items and keys that
compile, that do not (scalar subqueries, correlated or not) and that
raise on some rows (division by zero, a failing CAST naming its row, an
INT/TEXT ordering); ORDER BY ordinals, aliases, qualified names and
expressions in either direction; WHERE with subqueries; GROUP BY with
HAVING and aggregates over interpreted arguments; DISTINCT; set
operations ordered by output column; LIMIT/OFFSET — at batch sizes 1, 2
and 1024, on kernels and on the interpreter (the reference takes its own
flag; the column executor's interpreter leg is
``interpreter_leg.InterpretingExecutor``). Both executors must
return the same columns and rows, or raise the same error class with the
same message, compared by ``repr``. :data:`PINS` fixes the cases the
draw reaches only by luck.

What the reference does differently on purpose is pinned separately
(:class:`TestOrderByResolution`): an out-of-range ordinal is refused
before any item or key is evaluated, even when no row comes out; a set
operation's ORDER BY reads only output columns (by ordinal or name, in
range), and its LIMIT takes the bounded top-N. :class:`TestNaNOrdering`
pins NaN's place in the one ordering both executors share, and
:class:`TestNaNUniqueness` that this place does not make NaN keys collide
in a unique index of either kind.
"""

import heapq
from itertools import compress
from operator import ne
from time import perf_counter
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from interpreter_leg import use_engine

from repro.minidb import Database, parse
from repro.minidb import ast_nodes as ast
from repro.minidb.analysis import analyze
from repro.minidb.batch import DEFAULT_BATCH_SIZE, BatchError
from repro.minidb.errors import (
    ExecutionError,
    InvalidColumnReferenceError,
    MiniDBError,
    UniqueViolation,
)
from repro.minidb.executor import (
    _FOLDS,
    Executor,
    _AggregateEvaluator,
    _order_insensitive_output,
    _referenced_names,
    _Relation,
    _Reversed,
    _row_marker,
    _statement_exprs,
)
from repro.minidb.expressions import (
    FOLD_CLASS,
    GROUP_CLASS,
    SORT_NUMBER_CLASS,
    TEXT_CLASS,
    TRUTH_CLASS,
    Evaluator,
    Scope,
    compile_batch_expr,
)
from repro.minidb.functions import make_aggregate
from repro.minidb.planner import count_of
from repro.minidb.storage import ordering_key_element

# --------------------------------------------------------------------------
# the SELECT tail before every position was a column, verbatim
# --------------------------------------------------------------------------


def reference_raise_first_batch_error(columns: list[list], relation: _Relation) -> None:
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


def reference_key_columns(order_plans: list, cols: list) -> "list[tuple[list, bool]] | None":
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


_sort_key_element = ordering_key_element


def _descending_key_element(value: Any) -> tuple:
    element = _sort_key_element(value)
    return (element[0], _Reversed(element[1]), _Reversed(element[2]))


def reference_is_own_sort_key(values: list) -> bool:
    kinds = set(map(type, values))
    if kinds <= TEXT_CLASS:
        return True
    return kinds <= SORT_NUMBER_CLASS and not any(map(ne, values, values))


def reference_sort_keys(key_columns: "list[tuple[list, bool]]", reversible: bool):
    if reversible and len(key_columns) == 1:
        values, descending = key_columns[0]
        if reference_is_own_sort_key(values):
            return values, descending
    columns = [
        list(map(
            _descending_key_element if descending else _sort_key_element, values
        ))
        for values, descending in key_columns
    ]
    return (columns[0] if len(columns) == 1 else list(zip(*columns))), False


class ReferenceExecutor(Executor):
    """The per-row SELECT tail and predicate seam kept as the reference;
    scan, join, set operations and everything else are inherited. It
    compiles its own kernels unless ``compiled`` is false, and then
    interprets every position."""

    def __init__(self, database, compiled: bool = True):
        super().__init__(database)
        self.compiled = compiled

    def _run_plan(
        self, plan, session: "Session", outer: Scope | None, params, compiled
    ) -> tuple[list[str], list[list]]:
        def run_subquery(sub: ast.SelectStatement, scope: Scope) -> list[tuple]:
            _, sub_rows = self._run_select(sub, session, scope, plan.binding)
            return sub_rows

        evaluator = Evaluator(run_subquery)
        stmt = plan.stmt
        scans = plan.scans
        ordered = bool(scans) and scans[0].kind == "ordered"
        order_by = [] if ordered else stmt.order_by
        limit, offset = count_of(stmt.limit, params), count_of(stmt.offset, params)
        needed = limit + (offset or 0) if limit is not None else None
        refs = _referenced_names(_statement_exprs(stmt))
        unordered = _order_insensitive_output(stmt, plan.aggregates)
        trace = self.db.tracer.current()

        layout = Scope(plan.binding.slots, None, outer, params)
        relation = _Relation({}, {}, 1)  # no FROM clause: one empty row
        for position, scan in enumerate(scans):
            started = perf_counter() if trace is not None else 0.0
            if ordered:
                source, _, examined = self._scan(
                    scan, session, layout, evaluator, refs, stmt.where,
                    limit=needed,
                )
            else:
                source, _, examined = self._scan(
                    scan, session, layout, evaluator, refs, scan.filter,
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
                    relation, source, plan.joins[position - 1], layout, evaluator
                )
            else:
                relation = source

        if stmt.where is not None and not ordered:
            select = self._selector(stmt.where, layout, evaluator)
            relation = relation.take(select(relation))

        items = plan.items
        out_columns = plan.output_columns()
        # a set operation's ORDER BY names output columns, not the arm's
        arm_order_by = order_by if stmt.set_op is None else []
        if plan.grouped:
            out_rows, order_keys = self._aggregate(
                plan, items, arm_order_by, relation, layout, evaluator, run_subquery
            )
        else:
            out_rows, order_keys = self._project(
                items, arm_order_by, relation, layout, evaluator,
                not stmt.distinct and stmt.set_op is None, needed,
            )

        if stmt.distinct:
            out_rows, order_keys = self._distinct(out_rows, order_keys)

        if stmt.set_op is not None:
            kind = stmt.set_op[0]
            rhs_columns, rhs_values = self._run_plan(
                plan.set_op, session, outer, params, compiled
            )
            rhs_rows = list(zip(*rhs_values))
            if len(rhs_columns) != len(out_columns):
                raise ExecutionError(
                    f"{kind} operands must have the same number of columns"
                )
            out_rows = self._apply_set_op(kind, out_rows, rhs_rows)
            if order_by and out_rows:
                out_rows = self._order_by_output(order_by, out_columns, out_rows)
        elif order_by and order_keys:
            out_rows = [
                out_rows[i]
                for i in self._reference_ordered_indexes(order_keys, False, needed)
            ]

        offset = offset or 0
        if offset:
            out_rows = out_rows[offset:]
        if limit is not None:
            out_rows = out_rows[:limit]

        # the block's output columns, as Executor._run_plan returns them
        return out_columns, [list(col) for col in zip(*out_rows)] or [[] for _ in items]

    def _kernel(self, expr: ast.Expr, layout: Scope):
        if not self.compiled:
            return None
        kernel = compile_batch_expr(expr, layout.slots)
        return None if kernel is None else lambda batch: kernel(batch, layout.params)

    def _selector(
        self,
        predicate: ast.Expr,
        layout: Scope,
        evaluator: Evaluator,
        keep_errors=(),
    ):
        kernel = self._kernel(predicate, layout)
        size = self.db.planner_options["batch_size"]

        def select(relation: _Relation, limit: int | None = None) -> list[int]:
            kept: list[int] = []
            if kernel is None:
                scope = layout.at(relation)
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

    def _project(
        self, items, order_by, relation, layout, evaluator, final, needed
    ) -> "tuple[list[tuple], list | None]":
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
            reference_key_columns(order_plans, cols) if len(cols) == len(plans) else None
        )
        if key_columns is not None:
            reference_raise_first_batch_error(
                cols + [payload for kind, payload, _ in order_plans if kind == "vec"],
                relation,
            )
            if not n:
                return [], None
            if not key_columns:
                return list(zip(*cols)), None
            keys, reverse = reference_sort_keys(key_columns, final)
            if not final:
                return list(zip(*cols)), keys
            chosen = self._reference_ordered_indexes(keys, reverse, needed)
            return list(zip(*[list(map(col.__getitem__, chosen)) for col in cols])), None
        scope = layout.at(relation)
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
        stmt = plan.stmt
        n = relation.length
        scope = layout.at(relation)
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
                    key = _row_marker(key_values)
                    members = groups.get(key)
                    if members is None:
                        groups[key] = members = []
                    members.append(i)
        else:
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
                rep_scope = layout.at(relation.take([None], nulls=True))
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

    def _reference_ordered_indexes(self, keys: list, reverse: bool, needed: "int | None"):
        n = len(keys)
        if needed is not None and needed < n:
            self.db.bump_planner_stat("topn_limits")
            pick = heapq.nlargest if reverse else heapq.nsmallest
            return pick(needed, range(n), key=keys.__getitem__)
        return sorted(range(n), key=keys.__getitem__, reverse=reverse)

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
            marker = _row_marker(row)
            if marker in seen:
                continue
            seen.add(marker)
            kept_rows.append(row)
            if order_keys:
                kept_keys.append(order_keys[index])
        return kept_rows, kept_keys


# --------------------------------------------------------------------------
# generated statements
# --------------------------------------------------------------------------

T_COLUMNS = ["id", "a", "b", "c"]
#: raise on rows where a > 2 (compiled) / a names a row of u (interpreted),
#: with the row's id in the message
ROW_ERROR = "CAST(CASE WHEN a > 2 THEN 'r' || t.id END AS INT)"
SUBQUERY_ROW_ERROR = "(SELECT CAST('s' || t.id AS INT) FROM u WHERE u.id = t.a)"

#: select-list / ORDER BY expressions over t: compiled, interpreted
#: (scalar subqueries, correlated or not) and erroring on some rows
T_EXPRS = [
    "a",
    "b",
    "c",
    "t.id",
    "a + 1",
    "b * 2",
    "-a",
    "10 / (a - 2)",  # division by zero where a = 2
    "CAST(c AS INT)",  # TypeMismatchError on non-numeric text
    "a < c",  # INT vs TEXT ordering: ExecutionError on non-NULL pairs
    "CASE WHEN a > 1 THEN c ELSE 'z' END",
    "COALESCE(b, 0.5)",
    "NULL",
    "'k'",
    "(SELECT MAX(v) FROM u)",
    "(SELECT COUNT(*) FROM u WHERE u.k = t.a)",
    "(SELECT v FROM u WHERE u.id = t.id)",
    "(SELECT 10 / (v - 2) FROM u WHERE u.id = t.id)",
    "(SELECT t.b FROM u WHERE u.id = 0)",  # b, interpreted
    # errors that name their row: which one surfaces first is visible
    ROW_ERROR,
    SUBQUERY_ROW_ERROR,
]
WHERES = [
    "a > 1",
    "b IS NULL",
    "a IN (SELECT k FROM u)",
    "EXISTS (SELECT 1 FROM u WHERE u.k = t.a)",
    "10 / (a - 2) > 1",
    "c LIKE 'a%' OR a = 3",
    "a BETWEEN 1 AND 3",
]
GROUP_KEYS = [
    "a", "c", "b", "a + 1", "(SELECT MAX(v) FROM u)", "CAST(c AS INT)", ROW_ERROR,
    SUBQUERY_ROW_ERROR,
]
AGGREGATES = [
    f"MAX({ROW_ERROR})",
    f"SUM({SUBQUERY_ROW_ERROR})",
    "COUNT(*)",
    "COUNT(b)",
    "SUM(a)",
    "AVG(b)",
    "MIN(c)",
    "MAX(10 / (a - 2))",
    "SUM((SELECT v FROM u WHERE u.id = t.id))",
    "COUNT(DISTINCT a)",
    "MAX(CASE WHEN a > 2 THEN c END)",
]
HAVINGS = ["COUNT(*) > 1", "SUM(a) > 2", "MIN(c) < 'b'", "MAX(10 / (a - 2)) > 0"]

ints = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
reals = st.one_of(st.none(), st.sampled_from([-1.5, 0.0, 0.5, 2.0, 2.5, float("nan")]))
texts = st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b", "7", "x"]))
#: per column of (a, b, c): values that push a vector off the typed
#: (C-level) paths of the selector, the sort and the group/fold steps; a
#: heap insert skips coercion to plant them
PERTURBATIONS = ([True, 2.5, "7"], [-0.0, 2.0**53, 2**53 + 1], [7])


@st.composite
def rows_strategy(draw):
    rows = [list(row) for row in draw(st.lists(st.tuples(ints, reals, texts), max_size=12))]
    for _ in range(draw(st.integers(min_value=0, max_value=2 if rows else 0))):
        column = draw(st.integers(min_value=0, max_value=2))
        row = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        rows[row][column] = draw(st.sampled_from(PERTURBATIONS[column]))
    return rows


def direction(draw) -> str:
    return draw(st.sampled_from(["", " DESC", " ASC"]))


@st.composite
def plain_select(draw):
    """An ungrouped block over t (items, WHERE, ORDER BY, DISTINCT)."""
    items = []
    width = 0
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.integers(min_value=0, max_value=6)) == 0:
            items.append("*")
            width += len(T_COLUMNS)
            continue
        expr = draw(st.sampled_from(T_EXPRS))
        alias = draw(st.sampled_from(["", f" AS x{index}", " AS a", " AS c", " AS id"]))
        items.append(expr + alias)
        width += 1
    where = draw(st.sampled_from([None] + WHERES))
    keys = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["ordinal", "alias", "expr", "expr"]))
        if kind == "ordinal":
            key = str(draw(st.integers(min_value=1, max_value=width)))
        elif kind == "alias":  # a qualified name is never an alias
            key = draw(st.sampled_from(["x0", "x1", "x2", "a", "c", "id", "t.a", "t.id"]))
        else:
            key = draw(st.sampled_from(T_EXPRS))
        keys.append(key + direction(draw))
    distinct = "DISTINCT " if draw(st.integers(min_value=0, max_value=3)) == 0 else ""
    sql = f"SELECT {distinct}{', '.join(items)} FROM t"
    if where:
        sql += f" WHERE {where}"
    return sql, keys


@st.composite
def grouped_select(draw):
    """A grouped or aggregate block over t."""
    group = draw(st.lists(st.sampled_from(GROUP_KEYS), max_size=2, unique=True))
    items = [f"{key} AS g{i}" for i, key in enumerate(group)]
    items += draw(st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=3))
    if draw(st.booleans()):
        items.append(draw(st.sampled_from(["b", "1", "(SELECT MAX(v) FROM u)"])))
    where = draw(st.sampled_from([None] + WHERES))
    having = draw(st.sampled_from([None] + HAVINGS))
    keys = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        kind = draw(st.sampled_from(["ordinal", "alias", "aggregate", "key"]))
        if kind == "ordinal":
            key = str(draw(st.integers(min_value=1, max_value=len(items))))
        elif kind == "alias" and group:
            key = f"g{draw(st.integers(min_value=0, max_value=len(group) - 1))}"
        elif kind == "key" and group:
            key = draw(st.sampled_from(group))
        else:
            key = draw(st.sampled_from(AGGREGATES))
        keys.append(key + direction(draw))
    sql = f"SELECT {', '.join(items)} FROM t"
    if where:
        sql += f" WHERE {where}"
    if group:
        sql += f" GROUP BY {', '.join(group)}"
    if having:
        sql += f" HAVING {having}"
    return sql, keys


@st.composite
def set_op_select(draw):
    """Two two-column arms combined, ordered by output column only."""
    left, first = draw(st.sampled_from([
        ("SELECT a, c FROM t", "a"),
        ("SELECT a AS n, c FROM t WHERE a > 0", "n"),
        ("SELECT DISTINCT a, c FROM t", "a"),
        ("SELECT (SELECT MAX(v) FROM u) AS n, c FROM t", "n"),
    ]))
    right = draw(st.sampled_from([
        "SELECT k, 'u' FROM u",
        "SELECT v, NULL FROM u WHERE k > 1",
        "SELECT a, c FROM t WHERE b IS NULL",
    ]))
    kind = draw(st.sampled_from(["UNION", "UNION ALL", "INTERSECT", "EXCEPT"]))
    keys = [
        draw(st.sampled_from(["1", "2", first, "c"])) + direction(draw)
        for _ in range(draw(st.integers(min_value=0, max_value=2)))
    ]
    return f"{left} {kind} {right}", keys


@st.composite
def statement(draw):
    sql, keys = draw(st.one_of(plain_select(), grouped_select(), set_op_select()))
    if keys:
        sql += " ORDER BY " + ", ".join(keys)
    if draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(min_value=0, max_value=6))}"
        if draw(st.booleans()):
            sql += f" OFFSET {draw(st.integers(min_value=0, max_value=3))}"
    return sql


def database(rows, reference: bool, compiled: bool, batch_size: int):
    db = Database(owner="a")
    if reference:
        db.executor = ReferenceExecutor(db, compiled)
    else:
        use_engine(db, compiled)
    session = db.connect("a")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b REAL, c TEXT)")
    session.execute("CREATE INDEX ix_a ON t USING BTREE (a)")
    session.execute("CREATE TABLE u (id INT PRIMARY KEY, k INT, v INT)")
    heap = db.heap("t")
    for i, (a, b, c) in enumerate(rows):
        heap.insert({"id": i, "a": a, "b": b, "c": c})
    session.execute("INSERT INTO u VALUES (0, 1, 3), (1, 2, 2), (2, 2, 5), (3, 4, 1)")
    db.planner_options["batch_size"] = batch_size
    return session


def outcome(session, sql):
    try:
        result = session.execute(sql)
        return ("ok", result.columns, result.rows)
    # MIN/MAX over text beside a number (planted) raise Python's TypeError
    except (MiniDBError, TypeError) as exc:
        return ("err", type(exc).__name__, str(exc))


@settings(max_examples=400, deadline=None)
@given(
    rows=rows_strategy(),
    statements=st.lists(statement(), min_size=1, max_size=4),
    compiled=st.booleans(),
    batch_size=st.sampled_from([1, 2, DEFAULT_BATCH_SIZE]),
)
def test_select_operators_equal_the_reference(rows, statements, compiled, batch_size):
    reference = database(rows, True, compiled, batch_size)
    columns = database(rows, False, compiled, batch_size)
    for sql in statements:
        assert repr(outcome(columns, sql)) == repr(outcome(reference, sql)), sql


# --------------------------------------------------------------------------
# what the reference does differently, pinned
# --------------------------------------------------------------------------


@pytest.fixture
def s():
    db = Database(owner="a")
    session = db.connect("a")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, c TEXT)")
    session.execute("CREATE TABLE e (id INT PRIMARY KEY, a INT, c TEXT)")
    session.execute("INSERT INTO t VALUES (1, 3, 'x'), (2, 1, 'y'), (3, 2, 'z')")
    return session


NAN = float("nan")
#: statements whose answer the property reaches only by luck, with it
PINS = [
    # only an unqualified name is an alias
    ("SELECT c AS id FROM t ORDER BY id", [("a",), ("b",), ("b",), ("c",)]),
    ("SELECT c AS id FROM t ORDER BY t.id DESC", [("c",), ("b",), ("a",), ("b",)]),
    # DISTINCT keeps the first row of each value, and that row's key
    ("SELECT DISTINCT c FROM t ORDER BY a", [("a",), ("c",), ("b",)]),
    # the row-major first error: row 1's, though its item is the second
    (
        "SELECT CAST(CASE WHEN id = 2 THEN 'r' || id END AS INT),"
        " CAST(CASE WHEN id = 1 THEN 's' || id END AS INT) FROM t",
        ("TypeMismatchError", "42804: cannot coerce 's1' to INTEGER for column '<cast>'"),
    ),
    ("SELECT id FROM t ORDER BY w DESC, id", [(1,), (0,), (2,), (3,)]),
    ("SELECT c, MAX(w) AS m FROM t GROUP BY c ORDER BY m, c", [("c", -0.0), ("b", 2.0), ("a", NAN)]),
]


@pytest.mark.parametrize("compiled", [True, False], ids=["kernels", "interpreter"])
@pytest.mark.parametrize("sql, expected", PINS)
def test_pins_on_both_executors(sql, expected, compiled):
    outcomes = []
    for reference in (True, False):
        db = Database(owner="a")
        if reference:
            db.executor = ReferenceExecutor(db, compiled)
        else:
            use_engine(db, compiled)
        session = db.connect("a")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, c TEXT, a INT, w REAL)")
        session.execute(
            "INSERT INTO t VALUES (0, 'b', 5, 2.0), (1, 'a', 1, CAST('nan' AS REAL)),"
            " (2, 'b', 0, 1.0), (3, 'c', 2, -0.0)"
        )
        outcomes.append(outcome(session, sql))
    assert repr(outcomes[0]) == repr(outcomes[1])
    answer = outcomes[1][2] if outcomes[1][0] == "ok" else outcomes[1][1:]
    assert repr(answer) == repr(expected)


class TestNaNOrdering:
    """NaN sorts above every other number (PostgreSQL). It used to be its
    own ordering element, comparing false both ways."""

    @pytest.fixture
    def nan(self):
        db = Database(owner="a")
        session = db.connect("a")
        for table in ("t", "plain"):
            session.execute(f"CREATE TABLE {table} (id INT PRIMARY KEY, w REAL)")
        session.execute("CREATE INDEX ix_w ON t USING BTREE (w)")
        # an insertion order that left the btree unsorted, so probes
        # missed rows
        values = [0.5, 1.0, "nan", -0.0, 2.0, 2.0, 0.5, "nan", "nan"]
        for table in ("t", "plain"):
            for i, w in enumerate(values):
                literal = f"CAST('{w}' AS REAL)" if isinstance(w, str) else w
                session.execute(f"INSERT INTO {table} VALUES ({i}, {literal})")
        return session

    def test_order_by(self, nan):
        ascending = nan.execute("SELECT id FROM plain ORDER BY w, id").rows
        assert ascending == [(3,), (0,), (6,), (1,), (4,), (5,), (2,), (7,), (8,)]
        top = nan.execute("SELECT id FROM plain ORDER BY w DESC LIMIT 3").rows
        assert top == [(2,), (7,), (8,)]

    @pytest.mark.parametrize("where", ["w < 2.0", "w = 1.0", "w = 2.0", "w BETWEEN 0.5 AND 3.0"])
    def test_btree_probe_finds_every_row(self, nan, where):
        plan = nan.execute(f"EXPLAIN SELECT id FROM t WHERE {where}").rows[0][0]
        assert "using ix_w" in plan
        indexed = nan.execute(f"SELECT id FROM t WHERE {where} ORDER BY id").rows
        assert indexed == nan.execute(f"SELECT id FROM plain WHERE {where} ORDER BY id").rows

    def test_ordered_scan_equals_the_sort(self, nan):
        sql = "SELECT id FROM {} ORDER BY w LIMIT 8"
        assert "Ordered Index Scan" in nan.execute("EXPLAIN " + sql.format("t")).rows[0][0]
        assert nan.execute(sql.format("t")).rows == nan.execute(sql.format("plain")).rows


class TestNaNUniqueness:
    """A unique index of either kind accepts any number of NaNs, as it
    does NULLs: NaN is not equal to itself. (PostgreSQL treats NaN as
    equal to NaN and would refuse the second one.) One NaN key in the
    btree's order must not make a unique btree refuse what a hash index
    accepts."""

    NAN = "CAST('nan' AS REAL)"

    @pytest.mark.parametrize("using", ["HASH", "BTREE"])
    def test_backfill_insert_and_update_accept_nans(self, using):
        session = Database(owner="a").connect("a")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, w REAL)")
        session.execute(f"INSERT INTO t VALUES (1, {self.NAN}), (2, {self.NAN})")
        session.execute(f"CREATE UNIQUE INDEX ux ON t USING {using} (w)")
        session.execute(f"INSERT INTO t VALUES (3, {self.NAN})")
        session.execute("INSERT INTO t VALUES (4, 1.0)")
        session.execute(f"UPDATE t SET w = {self.NAN} WHERE id = 4")
        ids = session.execute("SELECT id FROM t ORDER BY w, id").rows
        assert ids == [(1,), (2,), (3,), (4,)]
        # numbers stay unique
        session.execute("INSERT INTO t VALUES (5, 1.0)")
        with pytest.raises(UniqueViolation):
            session.execute("INSERT INTO t VALUES (6, 1.0)")
        with pytest.raises(UniqueViolation):
            session.execute("UPDATE t SET w = 1.0 WHERE id = 1")

    @pytest.mark.parametrize("using", ["HASH", "BTREE"])
    def test_a_unique_constraint_accepts_nans(self, using):
        session = Database(owner="a").connect("a")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, w REAL UNIQUE)")
        session.execute(f"CREATE UNIQUE INDEX ux ON t USING {using} (id, w)")
        for i in range(3):
            session.execute(f"INSERT INTO t VALUES ({i}, {self.NAN})")
        assert session.execute("SELECT COUNT(*) FROM t").rows == [(3,)]

    def test_wal_replay_rebuilds_a_unique_btree_over_nans(self, tmp_path):
        path = str(tmp_path / "db")
        live = Database.open(path)
        session = live.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, w REAL)")
        session.execute("CREATE UNIQUE INDEX ux ON t USING BTREE (w)")
        session.execute(f"INSERT INTO t VALUES (1, {self.NAN}), (2, {self.NAN})")
        live.close()  # no checkpoint: reopening replays the WAL
        replayed = Database.open(path)
        assert replayed.engine.stats["wal_replayed"] > 0
        rows = replayed.connect("admin").execute("SELECT id FROM t ORDER BY id").rows
        assert rows == [(1,), (2,)]
        replayed.close()


class TestOrderByResolution:
    def test_ordinal_out_of_range_over_no_rows(self, s):
        # PostgreSQL refuses the ordinal when it analyses the statement
        # (42P10), whether or not any row comes out
        for sql in (
            "SELECT a FROM e ORDER BY 2",
            "SELECT a FROM t WHERE a > 9 ORDER BY 0",
            "SELECT a, COUNT(*) FROM e GROUP BY a ORDER BY 3",
        ):
            with pytest.raises(ExecutionError, match="ORDER BY position"):
                s.execute(sql)

    def test_ordinal_out_of_range_before_any_row_error(self, s):
        with pytest.raises(ExecutionError, match="ORDER BY position 2 is out of range"):
            s.execute("SELECT 10 / (a - 3) FROM t ORDER BY 2")

    @pytest.mark.parametrize(
        "sql, message",
        [
            # the WHERE divides by zero on every row: PostgreSQL refuses the
            # ORDER BY at analysis, before a row is read
            (
                "SELECT a FROM t WHERE 1 / (a - a) = 0 ORDER BY 2",
                "ORDER BY position 2 is out of range",
            ),
            (
                "SELECT a FROM t WHERE 1 / (a - a) = 0 UNION SELECT a FROM t ORDER BY 1 / 0",
                "ORDER BY after a set operation must use output columns",
            ),
        ],
    )
    def test_refused_by_the_binder_before_any_lock_or_row(self, s, sql, message, monkeypatch):
        assert analyze(parse(sql), s.db.catalog).binding.error.message == message
        locks = []
        monkeypatch.setattr(s, "lock_table", lambda table, mode: locks.append(table))
        scans = s.db.planner_stats["seq_scans"]
        with pytest.raises(ExecutionError, match=message):
            s.execute(sql)
        assert (locks, s.db.planner_stats["seq_scans"]) == ([], scans)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t ORDER BY 2",
            "SELECT a FROM t UNION SELECT a FROM e ORDER BY 1 / 0",
        ],
        ids=["ordinal-out-of-range", "set-operation-non-output-key"],
    )
    def test_refusals_carry_sqlstate_42p10(self, s, sql):
        # invalid_column_reference, PostgreSQL's SQLSTATE for both; still
        # an ExecutionError by descent
        with pytest.raises(InvalidColumnReferenceError) as caught:
            s.execute(sql)
        assert caught.value.code == "42P10"
        assert isinstance(caught.value, ExecutionError)
        assert str(caught.value).startswith("42P10: ")

    def test_set_operation_ordinal_zero(self, s):
        # with an empty left arm, row[-1] used to sort by the last column
        with pytest.raises(ExecutionError, match="ORDER BY position 0 is out of range"):
            s.execute("SELECT a, c FROM e UNION SELECT a, c FROM t ORDER BY 0")

    def test_set_operation_ordinal_past_the_last_column(self, s):
        # a bare IndexError used to escape from the sort key
        with pytest.raises(ExecutionError, match="ORDER BY position 3 is out of range"):
            s.execute("SELECT a, c FROM e UNION SELECT a, c FROM t ORDER BY 3")

    def test_set_operation_orders_by_output_columns_only(self, s):
        # the left arm no longer evaluates the key (here: 1/0 on every row)
        with pytest.raises(ExecutionError, match="must use output columns"):
            s.execute("SELECT a FROM t UNION SELECT a FROM e ORDER BY 1 / 0")
        rows = s.execute(
            "SELECT a, c FROM t UNION ALL SELECT a + 10, 'w' FROM t ORDER BY c DESC, 1"
        ).rows
        assert rows == [(2, "z"), (1, "y"), (3, "x"), (11, "w"), (12, "w"), (13, "w")]

    def test_set_operation_limit_is_a_bounded_top_n(self, s):
        stats = s.db.planner_stats
        before = stats["topn_limits"]
        rows = s.execute(
            "SELECT a FROM t UNION SELECT a + 5 FROM t ORDER BY a DESC LIMIT 2"
        ).rows
        assert rows == [(8,), (7,)]
        assert stats["topn_limits"] == before + 1

    @pytest.mark.parametrize("sql", [
        "SELECT SUM(*) FROM t",
        "SELECT a FROM t UNION SELECT MAX(*) FROM t",
    ])
    def test_only_count_takes_a_star(self, s, sql):
        # a KeyError out of the kernel lookup before the fix
        with pytest.raises(ExecutionError, match="only COUNT takes"):
            s.execute(sql)

    def test_grouped_and_distinct_keys(self, s):
        s.execute("INSERT INTO t VALUES (4, 1, 'x'), (5, 3, 'y')")
        assert s.execute(
            "SELECT c, SUM(a) AS total FROM t GROUP BY c ORDER BY total DESC, c"
        ).rows == [("x", 4), ("y", 4), ("z", 2)]
        assert s.execute(
            "SELECT DISTINCT c FROM t ORDER BY c DESC LIMIT 2"
        ).rows == [("z",), ("y",)]
