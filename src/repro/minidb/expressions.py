"""Expression evaluation with SQL three-valued logic — two engines.

* The :class:`Evaluator` walks the AST produced by
  :mod:`repro.minidb.parser` against a :class:`Scope` (the binder's
  slots over the current row of a relation). It is the **reference** every equivalence
  suite compares against (an executor that ignores every kernel) and the
  only engine for subqueries and outer-scope (correlated) references.
* :func:`compile_batch_expr` compiles an expression tree *once per
  plan* (``Executor._prepare``, its one caller, when the plan is made)
  into **batch kernels**: each compiled node maps a batch —
  the executor's columnar relation or a slice of it (a scanned heap
  batch, a chunk of join candidate pairs, DML candidates) — to a list of
  per-row values. Constants are folded, LIKE patterns pre-compiled to
  regexes, column references turned at compile time into direct reads
  of the columns their slots name, and one Python-level dispatch covers
  the whole batch instead of one AST walk per row. Expressions the
  compiler cannot handle (subqueries, aggregates, names bound in an
  outer scope) return ``None`` and the caller falls back to the
  interpreter per row; both engines share the arithmetic /
  comparison / LIKE helpers below, so results and errors are identical.

**Typed paths.** A comparison or BETWEEN against constants, and AND/OR,
map Python's own operator over a vector in C when every element lies in a
class where the shared helper provably returns what that operator
returns — numbers (``int`` / ``float`` / ``bool``) against a number,
``str`` against a ``str``, bools under AND/OR. The vector's *class fact*
decides (:func:`in_class`): a stored column carries the types its heap
column may hold (``RowBatch.facts``, kept per column by the heap's write
path and copied when the batch is cut), and a typed path's output is a
:class:`BoolVector`, all-bool by its type. Only a vector without a fact,
or with one straddling the class, is scanned once
(``frozenset(...).issuperset(map(type, col))``). Any vector outside the
class (a NULL, a deferred error, text against a number) runs the
per-element path on the vector already computed.

**The deferred-error contract.** SQL short-circuiting means the
interpreter may never evaluate an erroring operand for a given row
(``FALSE AND 1/0``), and a scan that exits early never evaluates rows
past the exit. Kernels therefore never raise a
:class:`~repro.minidb.errors.MiniDBError` eagerly: an element (or a
folded constant) that errors becomes a
:class:`repro.minidb.batch.BatchError` sentinel, AND/OR/CASE kernels
discard sentinels of short-circuited elements, and a consumer raises a
sentinel only when — walking in row order — it actually needs that
element's value: the moment the interpreter would have raised.

Aggregate functions are *not* evaluated here — the executor rewrites
aggregate calls into pre-computed literals before projection; this module
raises if it meets one, which doubles as a safety net against mis-planned
queries.
"""

from __future__ import annotations

import operator
import re
from itertools import repeat
from types import MappingProxyType
from typing import Any, Callable, Mapping

from . import ast_nodes as ast
from .batch import BatchError
from .errors import (
    DivisionByZeroError,
    ExecutionError,
    MiniDBError,
)
from .functions import AGGREGATE_NAMES, SCALAR_FUNCTIONS, sql_mod
from .types import ColumnType, coerce

#: evaluator used for sub-SELECTs; injected by the executor to avoid an
#: import cycle (executor imports expressions).
SubqueryRunner = Callable[[ast.SelectStatement, "Scope"], list[tuple]]


#: the compiled map of a scope only the interpreter reads (CHECK
#: constraints, INSERT values, defaults)
NOTHING_COMPILED: Mapping[int, Any] = MappingProxyType({})


class Scope:
    """Where the interpreter reads a column reference: the statement's
    slots (:class:`repro.minidb.analysis.Binding`), the relation whose
    cursor row (``relation.row``) this block's names read, and the scope
    of the block it is nested in. A slot ``(depth, binding, column)``
    reads ``column`` of ``binding`` in the relation ``depth`` scopes out;
    names were resolved once, by the binder, before any row. ``params``
    is the statement's literal vector, which each :class:`ast.Param`
    reads; ``compiled`` what the executor derived from its plan when it
    planned it, by node identity (an expression's batch kernel, or
    ``None`` for one the interpreter runs)."""

    __slots__ = ("slots", "relation", "outer", "params", "compiled")

    def __init__(
        self,
        slots: Mapping[int, tuple[int, str, str]],
        relation: Any = None,
        outer: "Scope | None" = None,
        params: "tuple | list" = (),
        compiled: "Mapping[int, Any]" = NOTHING_COMPILED,
    ):
        self.slots = slots
        self.relation = relation
        self.outer = outer
        self.params = params
        self.compiled = compiled

    def at(self, relation: Any) -> "Scope":
        """This block's names read at ``relation``'s cursor row."""
        return Scope(self.slots, relation, self.outer, self.params, self.compiled)

    def lookup(self, ref: ast.ColumnRef) -> Any:
        slot = self.slots.get(id(ref))
        if slot is None:
            raise ExecutionError(f"column {ref} is not bound")
        depth, binding, column = slot
        scope = self
        for _ in range(depth):
            scope = scope.outer
        relation = scope.relation
        return relation.column(binding, column)[relation.row]


class Evaluator:
    """Evaluates expressions against a scope; one instance per query."""

    def __init__(self, run_subquery: SubqueryRunner | None = None):
        self._run_subquery = run_subquery

    # ------------------------------------------------------------------ API

    def evaluate(self, expr: ast.Expr, scope: Scope) -> Any:
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise ExecutionError(f"cannot evaluate {type(expr).__name__}")
        return method(expr, scope)

    def evaluate_predicate(self, expr: ast.Expr, scope: Scope) -> bool:
        """Evaluate a WHERE/HAVING condition; NULL counts as false."""
        value = self.evaluate(expr, scope)
        return value is True

    # ------------------------------------------------------------ dispatch

    def _eval_Literal(self, expr: ast.Literal, scope: Scope) -> Any:
        return expr.value

    def _eval_Param(self, expr: ast.Param, scope: Scope) -> Any:
        return scope.params[expr.index]

    def _eval_ColumnRef(self, expr: ast.ColumnRef, scope: Scope) -> Any:
        return scope.lookup(expr)

    def _eval_Star(self, expr: ast.Star, scope: Scope) -> Any:
        raise ExecutionError("'*' is only valid in a select list or COUNT(*)")

    def _eval_UnaryOp(self, expr: ast.UnaryOp, scope: Scope) -> Any:
        value = self.evaluate(expr.operand, scope)
        if expr.op == "NOT":
            if value is None:
                return None
            return not _truthy(value)
        if value is None:
            return None
        if expr.op == "-":
            _require_number(value, "unary -")
            return -value
        if expr.op == "+":
            _require_number(value, "unary +")
            return value
        raise ExecutionError(f"unknown unary operator {expr.op}")

    def _eval_BinaryOp(self, expr: ast.BinaryOp, scope: Scope) -> Any:
        op = expr.op
        if op == "AND":
            return _three_valued_and(
                lambda: self.evaluate(expr.left, scope),
                lambda: self.evaluate(expr.right, scope),
            )
        if op == "OR":
            return _three_valued_or(
                lambda: self.evaluate(expr.left, scope),
                lambda: self.evaluate(expr.right, scope),
            )
        left = self.evaluate(expr.left, scope)
        right = self.evaluate(expr.right, scope)
        if left is None or right is None:
            return None
        if op == "||":
            return _to_text(left) + _to_text(right)
        if op in ("+", "-", "*", "/", "%"):
            return _arith(op, left, right)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return _compare(op, left, right)
        raise ExecutionError(f"unknown binary operator {op}")

    def _eval_FunctionCall(self, expr: ast.FunctionCall, scope: Scope) -> Any:
        name = expr.name
        if name in AGGREGATE_NAMES:
            raise ExecutionError(
                f"aggregate function {name}() is not allowed in this context"
            )
        fn = SCALAR_FUNCTIONS.get(name)
        if fn is None:
            raise ExecutionError(f"unknown function {name}()")
        args = [self.evaluate(a, scope) for a in expr.args]
        return fn(args)

    def _eval_CaseExpr(self, expr: ast.CaseExpr, scope: Scope) -> Any:
        if expr.operand is not None:
            subject = self.evaluate(expr.operand, scope)
            for when, then in expr.whens:
                candidate = self.evaluate(when, scope)
                if (
                    subject is not None
                    and candidate is not None
                    and _compare("=", subject, candidate) is True
                ):
                    return self.evaluate(then, scope)
        else:
            for when, then in expr.whens:
                if self.evaluate(when, scope) is True:
                    return self.evaluate(then, scope)
        if expr.default is not None:
            return self.evaluate(expr.default, scope)
        return None

    def _eval_InExpr(self, expr: ast.InExpr, scope: Scope) -> Any:
        operand = self.evaluate(expr.operand, scope)
        if isinstance(expr.candidates, ast.SelectStatement):
            rows = self._subquery_rows(expr.candidates, scope)
            values = [row[0] for row in rows]
        else:
            values = [self.evaluate(c, scope) for c in expr.candidates]
        if operand is None:
            return None
        saw_null = False
        for value in values:
            if value is None:
                saw_null = True
                continue
            if _compare("=", operand, value) is True:
                return not expr.negated
        if saw_null:
            return None
        return expr.negated

    def _eval_BetweenExpr(self, expr: ast.BetweenExpr, scope: Scope) -> Any:
        operand = self.evaluate(expr.operand, scope)
        low = self.evaluate(expr.low, scope)
        high = self.evaluate(expr.high, scope)
        if operand is None or low is None or high is None:
            return None
        result = (
            _compare(">=", operand, low) is True
            and _compare("<=", operand, high) is True
        )
        return (not result) if expr.negated else result

    def _eval_LikeExpr(self, expr: ast.LikeExpr, scope: Scope) -> Any:
        operand = self.evaluate(expr.operand, scope)
        pattern = self.evaluate(expr.pattern, scope)
        if operand is None or pattern is None:
            return None
        text = _to_text(operand)
        result = _like_match(text, _to_text(pattern), expr.case_insensitive)
        return (not result) if expr.negated else result

    def _eval_IsNullExpr(self, expr: ast.IsNullExpr, scope: Scope) -> Any:
        value = self.evaluate(expr.operand, scope)
        is_null = value is None
        return (not is_null) if expr.negated else is_null

    def _eval_ExistsExpr(self, expr: ast.ExistsExpr, scope: Scope) -> Any:
        rows = self._subquery_rows(expr.subquery, scope)
        result = len(rows) > 0
        return (not result) if expr.negated else result

    def _eval_ScalarSubquery(self, expr: ast.ScalarSubquery, scope: Scope) -> Any:
        rows = self._subquery_rows(expr.subquery, scope)
        if not rows:
            return None
        if len(rows) > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        if len(rows[0]) != 1:
            raise ExecutionError("scalar subquery must return exactly one column")
        return rows[0][0]

    def _eval_CastExpr(self, expr: ast.CastExpr, scope: Scope) -> Any:
        value = self.evaluate(expr.operand, scope)
        ctype = ColumnType.parse(expr.target_type)
        return coerce(value, ctype, column="<cast>")

    def _subquery_rows(self, select: ast.SelectStatement, scope: Scope) -> list[tuple]:
        if self._run_subquery is None:
            raise ExecutionError("subqueries are not supported in this context")
        return self._run_subquery(select, scope)


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _truthy(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise ExecutionError(f"value {value!r} is not a boolean")


def _three_valued_and(left_thunk, right_thunk) -> bool | None:
    left = left_thunk()
    if left is not None and not _truthy(left):
        return False
    right = right_thunk()
    if right is not None and not _truthy(right):
        return False
    if left is None or right is None:
        return None
    return True


def _three_valued_or(left_thunk, right_thunk) -> bool | None:
    left = left_thunk()
    if left is not None and _truthy(left):
        return True
    right = right_thunk()
    if right is not None and _truthy(right):
        return True
    if left is None or right is None:
        return None
    return False


def _require_number(value: Any, context: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExecutionError(f"{context} requires a numeric operand, got {value!r}")


def _arith(op: str, left: Any, right: Any) -> Any:
    if op == "%":
        return sql_mod(left, right)
    _require_number(left, f"operator {op}")
    _require_number(right, f"operator {op}")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise DivisionByZeroError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            # SQL integer division truncates toward zero; done on integers,
            # so operands beyond 2**53 keep every digit
            quotient = abs(left) // abs(right)
            return quotient if (left < 0) == (right < 0) else -quotient
        return left / right
    raise ExecutionError(f"unknown arithmetic operator {op}")


def _compare(op: str, left: Any, right: Any) -> bool:
    # numeric cross-type comparison is fine; bool participates as int in SQL-ish way
    if isinstance(left, bool) and isinstance(right, bool):
        pass
    elif isinstance(left, (int, float)) and isinstance(right, (int, float)):
        pass
    elif isinstance(left, str) and isinstance(right, str):
        pass
    else:
        # mismatched types: only equality/inequality are defined (always unequal)
        if op == "=":
            return False
        if op == "<>":
            return True
        raise ExecutionError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        )
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExecutionError(f"unknown comparison {op}")


def _to_text(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# --------------------------------------------------------------------------
# batch-kernel compilation
# --------------------------------------------------------------------------

#: a compiled batch evaluator: maps a batch (anything with ``length``,
#: ``column(binding, name)`` and ``fact(values)`` — the executor's
#: relation) and the statement's literal vector (which each
#: :class:`ast.Param` reads) to a list of ``length`` per-row values, each
#: a plain value or a deferred :class:`BatchError`
BatchFn = Callable[[Any, Any], list]

#: resolves one column reference to a batch accessor (``fn(batch, params)
#: -> column list``) at compile time; raises :class:`CannotCompile` when
#: the name belongs to an outer scope
BatchColumnResolver = Callable[[ast.ColumnRef], BatchFn]


class CannotCompile(Exception):
    """The expression needs the interpreter (subquery, aggregate, outer
    scope). Internal control flow of :func:`compile_batch_expr`."""


# compiled node: (kind, value, batch_fn) — a constant ``(True, value,
# None)``, a vector ``(False, None, fn)``, or one value per execution
# ``(None, getter, None)``: ``getter(params)`` computes it from the literal
# vector (a Param, or an operator over Params and constants), raising its
# MiniDBError. A per-execution value is folded like a constant, once per
# call instead of once per compile, and takes the same typed paths.


def _const(value: Any):
    return (True, value, None)


def _thunk(fn: BatchFn):
    return (False, None, fn)


def _per_execution(getter: Callable[[Any], Any]):
    return (None, getter, None)


def _scalar_getter(node) -> Callable[[Any], Any]:
    """``getter(params)`` of a constant or per-execution node."""
    if node[0]:
        value = node[1]
        return lambda params: value
    return node[1]


def _scalar_value(getter: Callable[[Any], Any], params) -> Any:
    """A per-execution value, its error deferred as a :class:`BatchError`."""
    try:
        return getter(params)
    except MiniDBError as exc:
        return BatchError(exc)


# -- per-element computes: each eagerly-evaluated operator is one pure
# -- ``compute`` closure that :func:`_fold_batch` maps over operand vectors


def _unary_compute(op: str):
    if op == "NOT":

        def compute(value):
            if value is None:
                return None
            return not _truthy(value)

    elif op in ("-", "+"):
        negate = op == "-"

        def compute(value, negate=negate, op=op):
            if value is None:
                return None
            _require_number(value, f"unary {op}")
            return -value if negate else value

    else:
        raise CannotCompile
    return compute


def _binary_compute(op: str):
    """Eagerly-evaluated binary operators (AND/OR are lazy, not here)."""
    if op == "||":

        def compute(l, r):
            if l is None or r is None:
                return None
            return _to_text(l) + _to_text(r)

    elif op in ("+", "-", "*", "/", "%"):

        def compute(l, r, op=op):
            if l is None or r is None:
                return None
            return _arith(op, l, r)

    elif op in ("=", "<>", "<", "<=", ">", ">="):

        def compute(l, r, op=op):
            if l is None or r is None:
                return None
            return _compare(op, l, r)

    else:
        raise CannotCompile
    return compute


def _is_null_compute(negated: bool):
    def compute(value, negated=negated):
        is_null = value is None
        return (not is_null) if negated else is_null

    return compute


def _cast_compute(ctype: ColumnType):
    def compute(value, ctype=ctype):
        return coerce(value, ctype, column="<cast>")

    return compute


def _in_compute(negated: bool):
    def compute(operand, *values, negated=negated):
        if operand is None:
            return None
        saw_null = False
        for value in values:
            if value is None:
                saw_null = True
                continue
            if _compare("=", operand, value) is True:
                return not negated
        if saw_null:
            return None
        return negated

    return compute


def _between_compute(negated: bool):
    def compute(operand, low, high, negated=negated):
        if operand is None or low is None or high is None:
            return None
        result = (
            _compare(">=", operand, low) is True
            and _compare("<=", operand, high) is True
        )
        return (not result) if negated else result

    return compute


def _like_const_compute(regex: "re.Pattern[str]", negated: bool):
    def compute(value, regex=regex, negated=negated):
        if value is None:
            return None
        result = regex.match(_to_text(value)) is not None
        return (not result) if negated else result

    return compute


def _like_dynamic_compute(negated: bool, case_insensitive: bool):
    def compute(value, pattern_value, negated=negated, ci=case_insensitive):
        if value is None or pattern_value is None:
            return None
        result = _like_match(_to_text(value), _to_text(pattern_value), ci)
        return (not result) if negated else result

    return compute


def _like_regex(pattern: str, case_insensitive: bool) -> "re.Pattern[str]":
    regex_parts = ["^"]
    for ch in pattern:
        if ch == "%":
            regex_parts.append(".*")
        elif ch == "_":
            regex_parts.append(".")
        else:
            regex_parts.append(re.escape(ch))
    regex_parts.append("$")
    flags = re.IGNORECASE | re.DOTALL if case_insensitive else re.DOTALL
    return re.compile("".join(regex_parts), flags)


def _like_match(text: str, pattern: str, case_insensitive: bool) -> bool:
    return _like_regex(pattern, case_insensitive).match(text) is not None


#: CASE kernels need "no branch matched" distinct from a matched branch
#: that produced None
_UNMATCHED = object()


def _as_batch_fn(node):
    """Node -> per-batch iterable producer (constants broadcast lazily)."""
    kind, value, fn = node
    if kind:
        return lambda batch, params, value=value: repeat(value, batch.length)
    if kind is None:
        return lambda batch, params, getter=value: repeat(
            _scalar_value(getter, params), batch.length
        )
    return fn


def _as_batch_list_fn(node) -> BatchFn:
    """Node -> per-batch *list* producer (for kernels that index)."""
    kind, value, fn = node
    if kind:
        return lambda batch, params, value=value: [value] * batch.length
    if kind is None:
        return lambda batch, params, getter=value: [
            _scalar_value(getter, params)
        ] * batch.length
    return fn


def _deferred_const(exc: Exception):
    """A column whose every element is the deferred ``exc`` (an unknown
    function, a bad cast): it raises only for an element that is
    actually consumed, so "no rows evaluated, no error" holds."""
    err = BatchError(exc)
    return _thunk(lambda batch, params: [err] * batch.length)


def _apply(compute: Callable[..., Any], *cols) -> list:
    """``compute`` element-wise over operand vectors, errors deferred: an
    operand element that is already an error propagates (leftmost operand
    wins, matching the interpreter's left-to-right operand evaluation) and
    a :class:`MiniDBError` ``compute`` raises becomes a :class:`BatchError`.
    The per-element path of every eager kernel, and the fallback of each
    typed path (run on the vectors that path already computed)."""
    out = []
    append = out.append
    if len(cols) == 1:
        for v in cols[0]:
            if type(v) is BatchError:
                append(v)
                continue
            try:
                append(compute(v))
            except MiniDBError as exc:
                append(BatchError(exc))
        return out
    if len(cols) == 2:
        for l, r in zip(*cols):
            if type(l) is BatchError:
                append(l)
                continue
            if type(r) is BatchError:
                append(r)
                continue
            try:
                append(compute(l, r))
            except MiniDBError as exc:
                append(BatchError(exc))
        return out
    for args in zip(*cols):
        err = None
        for a in args:
            if type(a) is BatchError:
                err = a
                break
        if err is not None:
            append(err)
            continue
        try:
            append(compute(*args))
        except MiniDBError as exc:
            append(BatchError(exc))
    return out


def _fold_batch(operands: list, compute: Callable[..., Any]):
    """Element-wise ``compute`` over operand vectors (:func:`_apply`), for
    the operators the interpreter evaluates eagerly (AND/OR/CASE have their
    own lazy kernels). All-constant operands fold once at compile time; an
    evaluation error — at fold time or per element — is deferred into a
    :class:`BatchError` sentinel rather than raised, so a folded ``1/0``
    behind a short-circuiting AND still errors exactly when the
    interpreter would have evaluated it. Only :class:`MiniDBError` is
    deferred. Operands that are each a constant or a per-execution value
    fold into a per-execution value: ``compute`` once per call.
    """
    if all(node[0] for node in operands):
        values = [node[1] for node in operands]
        try:
            return _const(compute(*values))
        except MiniDBError as exc:
            return _deferred_const(exc)
    if all(node[0] is not False for node in operands):
        getters = [_scalar_getter(node) for node in operands]
        return _per_execution(
            lambda params: compute(*[getter(params) for getter in getters])
        )
    fns = [_as_batch_fn(node) for node in operands]

    def fn(batch, params, fns=fns, compute=compute):
        return _apply(compute, *[f(batch, params) for f in fns])

    return _thunk(fn)


# -- typed paths: a kernel handed a batch whose values all fall in one class
# -- where the scalar helper provably returns what Python's own operator
# -- returns maps that operator over the whole vector in C. The vector's
# -- class fact decides, else one pass per batch; any other batch (a NULL, a
# -- deferred error, text against a number) takes the per-element path on
# -- the same vectors. Every class of the engine is defined here, the
# -- executor's included, each beside the scalar code it agrees with.

#: ``_compare`` is Python's operator between any two of these: it lets
#: ``bool`` meet ``int`` and ``float`` as a number ...
NUMBER_CLASS = frozenset((int, float, bool))
#: ... and between two of these
TEXT_CLASS = frozenset((str,))
#: ``_truthy`` and 3VL AND/OR are Python's ``&`` / ``|`` on these
BOOL_CLASS = frozenset((bool,))
#: a WHERE vector of these holds no deferred error, and the selector's
#: per-row walk keeps exactly its ``True`` elements — ``compress`` in C
TRUTH_CLASS = frozenset((bool, type(None)))
#: the SUM / AVG / MIN / MAX / COUNT accumulators (``functions.py``) fed
#: these return what ``reduce(add)`` / ``min`` / ``max`` / ``len`` return.
#: Unlike NUMBER_CLASS, no ``bool``: SUM and AVG reject it with an error
FOLD_CLASS = frozenset((int, float))
#: ``ordering_key_element`` (storage.py) preserves order and loses nothing
#: on a vector of only these, NaN aside (the caller scans for it), or of
#: only TEXT_CLASS: such a vector is its own ORDER BY key. ``bool`` is left
#: out: its key is ``int(value)``, not the value
SORT_NUMBER_CLASS = frozenset((int, float))
#: a GROUP BY key column holding exactly one of these types (and perhaps
#: NULL) groups by its values as the per-row path groups by ``(type name,
#: value)``: with one type the name adds nothing, and NaN and -0.0/0.0
#: hash alike either way
GROUP_CLASS = frozenset((int, float, str))
#: NULL, which a GROUP BY key may hold beside its one GROUP_CLASS type: it
#: groups apart from every value, as its ``_row_marker`` does
NULL_CLASS = frozenset((type(None),))


class BoolVector(list):
    """A kernel output that holds only ``bool``: what the typed path of a
    comparison, BETWEEN, AND or OR returns. Its type is its class fact
    (BOOL_CLASS), so AND/OR and the WHERE selector read the fact instead
    of scanning it. It stays inside the executor: a column a statement
    returns is a plain ``list``."""

    __slots__ = ()


def vector_fact(batch, values: list) -> "frozenset | None":
    """The class fact of a vector a kernel reads or returns: BOOL_CLASS
    for a :class:`BoolVector`, the stored fact ``batch`` keeps for one of
    its columns, else ``None`` (unknown). A fact may be wider than the
    vector's types, never narrower."""
    if type(values) is BoolVector:
        return BOOL_CLASS
    return batch.fact(values)


def in_class(cls: frozenset, values: list, fact: "frozenset | None") -> bool:
    """Whether every element of ``values`` lies in ``cls``: the vector's
    ``fact`` decides when it is known and inside ``cls`` (yes) or shares
    no type with it (no; on an empty vector either answer leads every
    caller to the same result); otherwise — no fact, or one that
    straddles ``cls`` — one pass over the vector does."""
    if fact is not None:
        if fact <= cls:
            return True
        if fact.isdisjoint(cls):
            return False
    return cls.issuperset(map(type, values))


_COMPARE_OPERATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _constant_class(value: Any) -> "frozenset | None":
    """The class a vector must lie in for comparisons against the
    constant ``value`` to be Python's operator; ``None`` for NULL or any
    other type (no typed path)."""
    kind = type(value)
    if kind in NUMBER_CLASS:
        return NUMBER_CLASS
    if kind is str:
        return TEXT_CLASS
    return None


def compile_batch_expr(
    expr: ast.Expr, slots: Mapping[int, tuple[int, str, str]]
) -> BatchFn | None:
    """Compile an expression to a batch evaluator, or ``None`` — the
    only compile entry point.

    The returned ``fn(batch, params)`` yields one value per row; elements whose
    evaluation errored are :class:`BatchError` sentinels the caller must
    raise when (and only when) the element's value is consumed. A
    predicate consumer applies the NULL-counts-as-false rule by keeping
    only elements that are ``True`` and raises the first sentinel it
    reaches in row order. A column reference reads its ``slots`` entry's
    column of the batch directly, and a :class:`ast.Param` slot
    ``index`` of the literal vector ``params`` (per call: a kernel is
    compiled once and run with every execution's vector). Returns ``None``
    when any part of the
    expression needs the interpreter (subqueries, aggregates, correlated
    names): callers keep the AST and evaluate it per row through
    :class:`Evaluator`.
    """

    def resolve(ref: ast.ColumnRef) -> BatchFn:
        depth, binding, column = slots[id(ref)]
        if depth:
            raise CannotCompile  # an outer block's row: read per row
        return lambda batch, params: batch.column(binding, column)

    try:
        node = _compile_batch(expr, resolve)
    except CannotCompile:
        return None
    return _as_batch_list_fn(node)


def _compile_batch(expr: ast.Expr, resolve: BatchColumnResolver):
    if isinstance(expr, ast.Literal):
        return _const(expr.value)
    if isinstance(expr, ast.Param):
        return _per_execution(operator.itemgetter(expr.index))
    if isinstance(expr, ast.ColumnRef):
        return _thunk(resolve(expr))
    if isinstance(expr, ast.Star):
        return _deferred_const(
            ExecutionError("'*' is only valid in a select list or COUNT(*)")
        )
    if isinstance(expr, ast.UnaryOp):
        return _fold_batch(
            [_compile_batch(expr.operand, resolve)], _unary_compute(expr.op)
        )
    if isinstance(expr, ast.BinaryOp):
        return _compile_batch_binary(expr, resolve)
    if isinstance(expr, ast.FunctionCall):
        return _compile_batch_function(expr, resolve)
    if isinstance(expr, ast.CaseExpr):
        return _compile_batch_case(expr, resolve)
    if isinstance(expr, ast.InExpr):
        if isinstance(expr.candidates, ast.SelectStatement):
            raise CannotCompile
        operands = [_compile_batch(expr.operand, resolve)]
        operands.extend(_compile_batch(c, resolve) for c in expr.candidates)
        return _fold_batch(operands, _in_compute(expr.negated))
    if isinstance(expr, ast.BetweenExpr):
        return _compile_batch_between(expr, resolve)
    if isinstance(expr, ast.LikeExpr):
        return _compile_batch_like(expr, resolve)
    if isinstance(expr, ast.IsNullExpr):
        return _fold_batch(
            [_compile_batch(expr.operand, resolve)],
            _is_null_compute(expr.negated),
        )
    if isinstance(expr, ast.CastExpr):
        try:
            ctype = ColumnType.parse(expr.target_type)
        except MiniDBError as exc:
            return _deferred_const(exc)
        return _fold_batch(
            [_compile_batch(expr.operand, resolve)], _cast_compute(ctype)
        )
    # subqueries (ExistsExpr, ScalarSubquery, IN (SELECT ...)) and anything
    # unrecognized: the interpreter owns it
    raise CannotCompile


def _compile_batch_binary(expr: ast.BinaryOp, resolve: BatchColumnResolver):
    op = expr.op
    if op in ("AND", "OR"):
        left = _compile_batch(expr.left, resolve)
        right = _compile_batch(expr.right, resolve)
        if left[0] and right[0]:
            lv, rv = left[1], right[1]
            combine = _three_valued_and if op == "AND" else _three_valued_or
            try:
                return _const(combine(lambda: lv, lambda: rv))
            except MiniDBError as exc:
                return _deferred_const(exc)
        lf, rf = _as_batch_list_fn(left), _as_batch_list_fn(right)
        kernel = _batch_and if op == "AND" else _batch_or
        return _thunk(kernel(lf, rf))
    operands = [_compile_batch(expr.left, resolve), _compile_batch(expr.right, resolve)]
    if op in _COMPARE_OPERATORS:
        return _compile_batch_compare(op, *operands)
    return _fold_batch(operands, _binary_compute(op))


def _compile_batch_compare(op: str, left, right):
    """A comparison. With exactly one operand a non-NULL constant ``c`` (or
    a per-execution value, read once per call), a batch whose other vector
    lies in ``c``'s class is ``map(operator.<op>, ...)`` — operands kept
    in their order."""
    compute = _binary_compute(op)
    if (left[0] is False) == (right[0] is False):
        # two values fold, two vectors have no constant
        return _fold_batch([left, right], compute)
    constant_left = left[0] is not False
    scalar, column = (left, right[2]) if constant_left else (right, left[2])
    getter = _scalar_getter(scalar)
    python_op = _COMPARE_OPERATORS[op]

    def fn(batch, params):
        col = column(batch, params)
        value = _scalar_value(getter, params)
        typed = _constant_class(value)
        constants = repeat(value, batch.length)
        operands = (constants, col) if constant_left else (col, constants)
        if typed is not None and in_class(typed, col, vector_fact(batch, col)):
            return BoolVector(map(python_op, *operands))
        return _apply(compute, *operands)

    return _thunk(fn)


def _compile_batch_between(expr: ast.BetweenExpr, resolve: BatchColumnResolver):
    """[NOT] BETWEEN. A vector operand with constant (or per-execution)
    bounds of one class is ``map(and_, map(ge, ...), map(le, ...))`` on a
    batch in that class (both comparisons evaluated: inside the class
    neither can raise)."""
    operands = [
        _compile_batch(expr.operand, resolve),
        _compile_batch(expr.low, resolve),
        _compile_batch(expr.high, resolve),
    ]
    compute = _between_compute(expr.negated)
    operand, low, high = operands
    if operand[0] is not False or low[0] is False or high[0] is False:
        return _fold_batch(operands, compute)
    column, negated = operand[2], expr.negated
    low_of, high_of = _scalar_getter(low), _scalar_getter(high)

    def fn(batch, params):
        col = column(batch, params)
        lo, hi = _scalar_value(low_of, params), _scalar_value(high_of, params)
        typed = _constant_class(lo)
        if (
            typed is not None
            and _constant_class(hi) is typed
            and in_class(typed, col, vector_fact(batch, col))
        ):
            hits = map(
                operator.and_,
                map(operator.ge, col, repeat(lo)),
                map(operator.le, col, repeat(hi)),
            )
            return BoolVector(map(operator.not_, hits) if negated else hits)
        return _apply(compute, col, repeat(lo, batch.length), repeat(hi, batch.length))

    return _thunk(fn)


def _batch_and(lf, rf):
    """Vectorized 3VL AND with per-element short-circuit.

    The right operand vector is computed for the whole batch (kernels are
    pure, so that is unobservable), but its *errors* are discarded for
    elements the interpreter's AND would never have evaluated the right
    side for — the deferred-error contract that keeps kernels from
    raising on rows a short-circuit would have skipped. Two vectors of
    only bools (no NULL, so no error either) are ``map(operator.and_)``.
    """

    def fn(batch, params, lf=lf, rf=rf):
        lv, rv = lf(batch, params), rf(batch, params)
        if in_class(BOOL_CLASS, lv, vector_fact(batch, lv)) and in_class(
            BOOL_CLASS, rv, vector_fact(batch, rv)
        ):
            return BoolVector(map(operator.and_, lv, rv))
        out = []
        append = out.append
        for l, r in zip(lv, rv):
            if l is False:
                append(False)
                continue
            if l is not True and l is not None:
                if type(l) is BatchError:
                    append(l)
                    continue
                try:
                    if not _truthy(l):
                        append(False)
                        continue
                except MiniDBError as exc:
                    append(BatchError(exc))
                    continue
            # left passed (True, truthy non-bool, or NULL): right decides
            if r is False:
                append(False)
                continue
            if r is not True and r is not None:
                if type(r) is BatchError:
                    append(r)
                    continue
                try:
                    if not _truthy(r):
                        append(False)
                        continue
                except MiniDBError as exc:
                    append(BatchError(exc))
                    continue
            append(True if (l is not None and r is not None) else None)
        return out

    return fn


def _batch_or(lf, rf):
    """Vectorized 3VL OR; see :func:`_batch_and` for the error contract
    and the all-bool path."""

    def fn(batch, params, lf=lf, rf=rf):
        lv, rv = lf(batch, params), rf(batch, params)
        if in_class(BOOL_CLASS, lv, vector_fact(batch, lv)) and in_class(
            BOOL_CLASS, rv, vector_fact(batch, rv)
        ):
            return BoolVector(map(operator.or_, lv, rv))
        out = []
        append = out.append
        for l, r in zip(lv, rv):
            if l is True:
                append(True)
                continue
            if l is not False and l is not None:
                if type(l) is BatchError:
                    append(l)
                    continue
                try:
                    if _truthy(l):
                        append(True)
                        continue
                except MiniDBError as exc:
                    append(BatchError(exc))
                    continue
            if r is True:
                append(True)
                continue
            if r is not False and r is not None:
                if type(r) is BatchError:
                    append(r)
                    continue
                try:
                    if _truthy(r):
                        append(True)
                        continue
                except MiniDBError as exc:
                    append(BatchError(exc))
                    continue
            append(False if (l is not None and r is not None) else None)
        return out

    return fn


def _compile_batch_function(expr: ast.FunctionCall, resolve: BatchColumnResolver):
    if expr.name in AGGREGATE_NAMES:
        raise CannotCompile  # the interpreter raises the contextual error
    fn = SCALAR_FUNCTIONS.get(expr.name)
    if fn is None:
        return _deferred_const(ExecutionError(f"unknown function {expr.name}()"))
    arg_fns = [_as_batch_list_fn(_compile_batch(a, resolve)) for a in expr.args]

    # never folded: keeps compile-time evaluation away from function
    # implementations (and their argument-validation errors); the
    # implementation is still called once per row, in row order
    def call(batch, params, fn=fn, arg_fns=arg_fns):
        cols = [f(batch, params) for f in arg_fns]
        out = []
        append = out.append
        for i in range(batch.length):
            args = [col[i] for col in cols]
            err = None
            for a in args:
                if type(a) is BatchError:
                    err = a
                    break
            if err is not None:
                append(err)
                continue
            try:
                append(fn(args))
            except MiniDBError as exc:
                append(BatchError(exc))
        return out

    return _thunk(call)


def _compile_batch_case(expr: ast.CaseExpr, resolve: BatchColumnResolver):
    # the interpreter is lazy (branches after the first match, and the
    # ELSE of a matched CASE, are never evaluated); the kernel evaluates
    # every branch vector but defers errors, then per element walks the
    # branches in order and discards whatever a lazy evaluation would
    # not have touched
    whens = [
        (
            _as_batch_list_fn(_compile_batch(when, resolve)),
            _as_batch_list_fn(_compile_batch(then, resolve)),
        )
        for when, then in expr.whens
    ]
    default = (
        _as_batch_list_fn(_compile_batch(expr.default, resolve))
        if expr.default is not None
        else None
    )
    if expr.operand is not None:
        operand_fn = _as_batch_list_fn(_compile_batch(expr.operand, resolve))

        def fn(batch, params, operand_fn=operand_fn, whens=whens, default=default):
            subjects = operand_fn(batch, params)
            when_cols = [(wf(batch, params), tf(batch, params)) for wf, tf in whens]
            dflt = default(batch, params) if default is not None else None
            out = []
            append = out.append
            for i in range(batch.length):
                subject = subjects[i]
                if type(subject) is BatchError:
                    append(subject)
                    continue
                chosen = _UNMATCHED
                for wcol, tcol in when_cols:
                    candidate = wcol[i]
                    if type(candidate) is BatchError:
                        chosen = candidate
                        break
                    if subject is not None and candidate is not None:
                        try:
                            matched = _compare("=", subject, candidate) is True
                        except MiniDBError as exc:
                            chosen = BatchError(exc)
                            break
                        if matched:
                            chosen = tcol[i]
                            break
                if chosen is _UNMATCHED:
                    chosen = dflt[i] if dflt is not None else None
                append(chosen)
            return out

    else:

        def fn(batch, params, whens=whens, default=default):
            when_cols = [(wf(batch, params), tf(batch, params)) for wf, tf in whens]
            dflt = default(batch, params) if default is not None else None
            out = []
            append = out.append
            for i in range(batch.length):
                chosen = _UNMATCHED
                for wcol, tcol in when_cols:
                    when_value = wcol[i]
                    if type(when_value) is BatchError:
                        chosen = when_value
                        break
                    if when_value is True:
                        chosen = tcol[i]
                        break
                if chosen is _UNMATCHED:
                    chosen = dflt[i] if dflt is not None else None
                append(chosen)
            return out

    return _thunk(fn)


def _compile_batch_like(expr: ast.LikeExpr, resolve: BatchColumnResolver):
    operand = _compile_batch(expr.operand, resolve)
    pattern = _compile_batch(expr.pattern, resolve)
    dynamic = _like_dynamic_compute(expr.negated, expr.case_insensitive)
    if pattern[0] and pattern[1] is not None:
        # constant pattern (the overwhelmingly common case): one regex per
        # statement instead of one per row
        regex = _like_regex(_to_text(pattern[1]), expr.case_insensitive)
        return _fold_batch([operand], _like_const_compute(regex, expr.negated))
    if pattern[0] is None and operand[0] is False:
        # a pattern of the literal vector: one regex per call
        column, getter = operand[2], pattern[1]

        def fn(batch, params):
            col = column(batch, params)
            value = _scalar_value(getter, params)
            if value is None or type(value) is BatchError:
                return _apply(dynamic, col, repeat(value, batch.length))
            regex = _like_regex(_to_text(value), expr.case_insensitive)
            return _apply(_like_const_compute(regex, expr.negated), col)

        return _thunk(fn)
    return _fold_batch([operand, pattern], dynamic)
