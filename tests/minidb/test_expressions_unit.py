"""Direct unit tests for the expression evaluator and scope resolution."""

import pytest

from repro.minidb import ast_nodes as ast
from repro.minidb.errors import ExecutionError
from repro.minidb.expressions import Evaluator, Scope


class OneRow:
    """A relation of one row: ``binding -> column -> value``."""

    row = 0

    def __init__(self, **bindings):
        self.bindings = bindings

    def column(self, binding, name):
        return [self.bindings[binding][name]]


def scope(slots=None, relation=None, outer=None):
    """A slot scope: ``slots`` maps column references to their slots."""
    return Scope({id(ref): slot for ref, slot in (slots or {}).items()}, relation, outer)


@pytest.fixture
def ev():
    return Evaluator()


def col(name, table=None):
    return ast.ColumnRef(name, table)


def lit(value):
    return ast.Literal(value)


class TestScopeResolution:
    """The interpreter reads a reference through its slot; which column a
    name means is the binder's business (``test_binder.py``)."""

    def test_slot_reads_the_cursor_row(self, ev):
        x = col("x")
        assert ev.evaluate(x, scope({x: (0, "t", "x")}, OneRow(t={"x": 5}))) == 5

    def test_qualified_reference_reads_its_slot(self, ev):
        x = col("x", "t")
        assert ev.evaluate(x, scope({x: (0, "t", "x")}, OneRow(t={"x": 7}))) == 7

    def test_slot_names_the_stored_spelling(self, ev):
        x = col("X", "T")
        assert ev.evaluate(x, scope({x: (0, "t", "x")}, OneRow(t={"x": 7}))) == 7

    def test_depth_counts_scopes_outward(self, ev):
        y = col("y")
        outer = scope(relation=OneRow(o={"y": 9}))
        inner = scope({y: (1, "o", "y")}, OneRow(t={"y": 1}), outer)
        assert ev.evaluate(y, inner) == 9

    def test_depth_zero_reads_the_inner_row(self, ev):
        x = col("x")
        outer = scope(relation=OneRow(t={"x": 9}))
        inner = scope({x: (0, "t", "x")}, OneRow(t={"x": 1}), outer)
        assert ev.evaluate(x, inner) == 1

    def test_unbound_reference_is_refused(self, ev):
        with pytest.raises(ExecutionError, match="not bound"):
            ev.evaluate(col("ghost"), scope())


class TestOperators:
    def test_short_circuit_and(self, ev):
        # right side would error, but left FALSE short-circuits
        expr = ast.BinaryOp("AND", lit(False), ast.BinaryOp("/", lit(1), lit(0)))
        assert ev.evaluate(expr, scope()) is False

    def test_short_circuit_or(self, ev):
        expr = ast.BinaryOp("OR", lit(True), ast.BinaryOp("/", lit(1), lit(0)))
        assert ev.evaluate(expr, scope()) is True

    def test_and_error_when_needed(self, ev):
        expr = ast.BinaryOp("AND", lit(True), ast.BinaryOp("/", lit(1), lit(0)))
        with pytest.raises(ExecutionError):
            ev.evaluate(expr, scope())

    def test_numeric_truthiness(self, ev):
        expr = ast.BinaryOp("AND", lit(1), lit(2))
        assert ev.evaluate(expr, scope()) is True

    def test_string_not_boolean(self, ev):
        expr = ast.UnaryOp("NOT", lit("x"))
        with pytest.raises(ExecutionError):
            ev.evaluate(expr, scope())

    def test_unary_minus_requires_number(self, ev):
        with pytest.raises(ExecutionError):
            ev.evaluate(ast.UnaryOp("-", lit("a")), scope())

    def test_concat_coerces(self, ev):
        expr = ast.BinaryOp("||", lit(1), lit("x"))
        assert ev.evaluate(expr, scope()) == "1x"

    def test_modulo(self, ev):
        assert ev.evaluate(ast.BinaryOp("%", lit(7), lit(3)), scope()) == 1


class TestPredicateHelpers:
    def test_evaluate_predicate_null_is_false(self, ev):
        assert ev.evaluate_predicate(lit(None), scope()) is False

    def test_evaluate_predicate_true(self, ev):
        assert ev.evaluate_predicate(ast.BinaryOp("<", lit(1), lit(2)), scope())

    def test_between_inclusive(self, ev):
        expr = ast.BetweenExpr(lit(5), lit(5), lit(10))
        assert ev.evaluate(expr, scope()) is True

    def test_like_special_chars_escaped(self, ev):
        # regex metacharacters in the pattern are literal
        expr = ast.LikeExpr(lit("a.b"), lit("a.b"))
        assert ev.evaluate(expr, scope()) is True
        expr2 = ast.LikeExpr(lit("axb"), lit("a.b"))
        assert ev.evaluate(expr2, scope()) is False

    def test_like_percent_matches_empty(self, ev):
        assert ev.evaluate(ast.LikeExpr(lit("ab"), lit("ab%")), scope()) is True

    def test_case_without_match_or_default(self, ev):
        expr = ast.CaseExpr(lit(5), [(lit(1), lit("one"))], None)
        assert ev.evaluate(expr, scope()) is None

    def test_searched_case_null_condition_skipped(self, ev):
        expr = ast.CaseExpr(None, [(lit(None), lit("a"))], lit("b"))
        assert ev.evaluate(expr, scope()) == "b"

    def test_in_empty_candidates(self, ev):
        expr = ast.InExpr(lit(1), [])
        assert ev.evaluate(expr, scope()) is False

    def test_subquery_without_runner_rejected(self, ev):
        sub = ast.SelectStatement(items=[ast.SelectItem(lit(1))])
        with pytest.raises(ExecutionError):
            ev.evaluate(ast.ScalarSubquery(sub), scope())

    def test_aggregate_outside_grouping_rejected(self, ev):
        expr = ast.FunctionCall("COUNT", [ast.Star()])
        with pytest.raises(ExecutionError):
            ev.evaluate(expr, scope())

    def test_cast_in_evaluator(self, ev):
        expr = ast.CastExpr(lit("12"), "INT")
        assert ev.evaluate(expr, scope()) == 12
