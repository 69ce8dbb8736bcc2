"""Oracle for the expression-tree walk: :func:`ast_nodes.children` and the
four passes built on it.

:func:`repro.minidb.ast_nodes.children` is the one place that lists which
fields of an ``Expr`` hold sub-expressions. Column pruning
(``executor._referenced_names``), the COUNT-only sort skip
(``executor._order_insensitive_output``), aggregate detection
(``planner.collect_aggregates``) and the access footprint behind every
privilege check (``analysis.analyze``) each handle the node kinds they care
about and loop over ``children`` for the rest.

The references below are the hand-written recursive walkers those passes
used before, copied verbatim (only renamed): each re-listed the node
structure itself. Hypothesis draws trees over all 14 ``Expr`` kinds —
aggregates nested in CASE / IN / BETWEEN / LIKE / CAST, ``*`` as a function
argument, all three subquery forms — places them in every SELECT position
and in UPDATE / DELETE WHERE, and every pass must answer exactly what its
reference answers: the same set (or ``None``), the same flag, the same
aggregate nodes by identity in the same order, the same ``accesses`` in the
same order.

:func:`test_children_is_every_expr_field_in_order` builds each ``Expr``
subclass from its dataclass fields with a distinct marker in every
expression slot, so a node kind added without a ``children`` row (or a row
that drops or reorders a field) fails there first.
"""

import dataclasses
import itertools
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minidb import Database
from repro.minidb import analysis
from repro.minidb import ast_nodes as ast
from repro.minidb.analysis import ObjectAccess, StatementAnalysis
from repro.minidb.executor import (
    _order_insensitive_output,
    _referenced_names,
    _statement_exprs,
)
from repro.minidb.catalog import Catalog
from repro.minidb.errors import MiniDBError
from repro.minidb.functions import AGGREGATE_NAMES
from repro.minidb.planner import collect_aggregates

# --------------------------------------------------------------------------
# the walkers before ast_nodes.children, verbatim
# --------------------------------------------------------------------------


def reference_referenced_names(exprs):
    refs = set()
    for expr in exprs:
        if not reference_collect_column_refs(expr, refs):
            return None
    return refs


def reference_collect_column_refs(expr, out):
    if expr is None or isinstance(expr, ast.Literal):
        return True
    if isinstance(expr, ast.ColumnRef):
        out.add(expr.name.lower())
        return True
    if isinstance(expr, ast.UnaryOp):
        return reference_collect_column_refs(expr.operand, out)
    if isinstance(expr, ast.BinaryOp):
        return reference_collect_column_refs(
            expr.left, out
        ) and reference_collect_column_refs(expr.right, out)
    if isinstance(expr, ast.FunctionCall):
        if expr.name in AGGREGATE_NAMES:
            args = [a for a in expr.args if not isinstance(a, ast.Star)]
        else:
            args = expr.args
        return all(reference_collect_column_refs(a, out) for a in args)
    if isinstance(expr, ast.CaseExpr):
        parts = [expr.operand, expr.default]
        for when, then in expr.whens:
            parts.append(when)
            parts.append(then)
        return all(reference_collect_column_refs(p, out) for p in parts)
    if isinstance(expr, ast.InExpr):
        if not isinstance(expr.candidates, list):
            return False
        return reference_collect_column_refs(expr.operand, out) and all(
            reference_collect_column_refs(c, out) for c in expr.candidates
        )
    if isinstance(expr, ast.BetweenExpr):
        return (
            reference_collect_column_refs(expr.operand, out)
            and reference_collect_column_refs(expr.low, out)
            and reference_collect_column_refs(expr.high, out)
        )
    if isinstance(expr, ast.LikeExpr):
        return reference_collect_column_refs(
            expr.operand, out
        ) and reference_collect_column_refs(expr.pattern, out)
    if isinstance(expr, (ast.IsNullExpr, ast.CastExpr)):
        return reference_collect_column_refs(expr.operand, out)
    return False


def reference_order_sensitive_expr(expr):
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
            return False
        return any(reference_order_sensitive_expr(a) for a in expr.args)
    if isinstance(expr, ast.BinaryOp):
        return reference_order_sensitive_expr(
            expr.left
        ) or reference_order_sensitive_expr(expr.right)
    if isinstance(expr, ast.UnaryOp):
        return reference_order_sensitive_expr(expr.operand)
    if isinstance(expr, ast.CaseExpr):
        return (
            reference_order_sensitive_expr(expr.operand)
            or any(
                reference_order_sensitive_expr(when)
                or reference_order_sensitive_expr(then)
                for when, then in expr.whens
            )
            or reference_order_sensitive_expr(expr.default)
        )
    if isinstance(expr, ast.InExpr):
        if not isinstance(expr.candidates, list):
            return True
        return reference_order_sensitive_expr(expr.operand) or any(
            reference_order_sensitive_expr(c) for c in expr.candidates
        )
    if isinstance(expr, ast.BetweenExpr):
        return (
            reference_order_sensitive_expr(expr.operand)
            or reference_order_sensitive_expr(expr.low)
            or reference_order_sensitive_expr(expr.high)
        )
    if isinstance(expr, ast.LikeExpr):
        return reference_order_sensitive_expr(
            expr.operand
        ) or reference_order_sensitive_expr(expr.pattern)
    if isinstance(expr, (ast.IsNullExpr, ast.CastExpr)):
        return reference_order_sensitive_expr(expr.operand)
    return True


def reference_order_insensitive_output(stmt, aggregates):
    if stmt.group_by or stmt.distinct or stmt.set_op is not None:
        return False
    if not aggregates or any(a.name != "COUNT" for a in aggregates):
        return False
    exprs = [item.expr for item in stmt.items]
    exprs.append(stmt.having)
    exprs.extend(order.expr for order in stmt.order_by)
    return not any(reference_order_sensitive_expr(e) for e in exprs)


def reference_collect_aggregates(expr, out):
    if expr is None:
        return
    if isinstance(expr, ast.FunctionCall):
        if expr.name in AGGREGATE_NAMES:
            out.append(expr)
            return
        for arg in expr.args:
            reference_collect_aggregates(arg, out)
        return
    if isinstance(expr, ast.BinaryOp):
        reference_collect_aggregates(expr.left, out)
        reference_collect_aggregates(expr.right, out)
    elif isinstance(expr, ast.UnaryOp):
        reference_collect_aggregates(expr.operand, out)
    elif isinstance(expr, ast.CaseExpr):
        if expr.operand:
            reference_collect_aggregates(expr.operand, out)
        for when, then in expr.whens:
            reference_collect_aggregates(when, out)
            reference_collect_aggregates(then, out)
        if expr.default:
            reference_collect_aggregates(expr.default, out)
    elif isinstance(expr, ast.InExpr):
        reference_collect_aggregates(expr.operand, out)
        if isinstance(expr.candidates, list):
            for c in expr.candidates:
                reference_collect_aggregates(c, out)
    elif isinstance(expr, ast.BetweenExpr):
        reference_collect_aggregates(expr.operand, out)
        reference_collect_aggregates(expr.low, out)
        reference_collect_aggregates(expr.high, out)
    elif isinstance(expr, (ast.LikeExpr,)):
        reference_collect_aggregates(expr.operand, out)
        reference_collect_aggregates(expr.pattern, out)
    elif isinstance(expr, ast.IsNullExpr):
        reference_collect_aggregates(expr.operand, out)
    elif isinstance(expr, ast.CastExpr):
        reference_collect_aggregates(expr.operand, out)


# --------------------------------------------------------------------------
# the analyzer before the binder, verbatim (only renamed), under its walk;
# since the binder stopped claiming ``COUNT(*)``'s star (PostgreSQL asks
# for SELECT on any one column, not all), a bare star claims its sources
# only as a select item here too
# --------------------------------------------------------------------------


@dataclass
class _Claim:
    """An access being collected; frozen into an :class:`ObjectAccess`."""

    columns: set[str] = field(default_factory=set)
    whole_object: bool = False


#: one query block's bindings: name (lower) -> object (lower), or ``None``
#: for a derived table, whose columns its own analysis attributed
_Scope = dict[str, "str | None"]


class ParentAnalyzer:
    def __init__(self, catalog: Catalog | None):
        self.catalog = catalog
        #: (action, object) -> claim, in first-seen order
        self.claims: dict[tuple[str, str], _Claim] = {}
        #: the scopes of the query blocks being walked, innermost last
        self.scopes: list[_Scope] = []

    def run(self, stmt: ast.Statement) -> StatementAnalysis:
        if isinstance(stmt, ast.SelectStatement):
            self._analyze_select(stmt)
            return self._finish("SELECT", read_only=True)
        if isinstance(stmt, ast.ExplainStatement):
            self._analyze_select(stmt.select)
            return self._finish("SELECT", read_only=True)
        if isinstance(stmt, ast.InsertStatement):
            access = self._access("INSERT", stmt.table)
            if stmt.columns:
                access.columns.update(c.lower() for c in stmt.columns)
            else:
                access.whole_object = True
            if stmt.select is not None:
                self._analyze_select(stmt.select)
            return self._finish("INSERT", read_only=False)
        if isinstance(stmt, ast.UpdateStatement):
            access = self._access("UPDATE", stmt.table)
            access.columns.update(c.lower() for c, _ in stmt.assignments)
            self._walk_block(
                stmt.table, [expr for _, expr in stmt.assignments] + [stmt.where]
            )
            return self._finish("UPDATE", read_only=False)
        if isinstance(stmt, ast.DeleteStatement):
            self._access("DELETE", stmt.table).whole_object = True
            self._walk_block(stmt.table, [stmt.where])
            return self._finish("DELETE", read_only=False)
        if isinstance(stmt, ast.CreateTableStatement):
            self._access("CREATE", stmt.table).whole_object = True
            referenced = [fk.ref_table for fk in stmt.foreign_keys]
            referenced.extend(c.references[0] for c in stmt.columns if c.references)
            for table in referenced:
                # a self-reference reads the table being created, not an
                # object the creator needs SELECT on
                if table.lower() != stmt.table.lower():
                    self._access("SELECT", table).whole_object = True
            return self._finish("CREATE", read_only=False, ddl=True)
        if isinstance(stmt, ast.CreateIndexStatement):
            self._access("CREATE", stmt.table).whole_object = True
            return self._finish("CREATE", read_only=False, ddl=True)
        if isinstance(stmt, ast.CreateViewStatement):
            self._access("CREATE", stmt.name).whole_object = True
            self._analyze_select(stmt.select)
            return self._finish("CREATE", read_only=False, ddl=True)
        if isinstance(stmt, ast.DropTableStatement):
            for name in stmt.tables:
                self._access("DROP", name).whole_object = True
            return self._finish("DROP", read_only=False, ddl=True)
        if isinstance(stmt, ast.DropIndexStatement):
            obj = stmt.name
            if self.catalog is not None and stmt.name.lower() in self.catalog.indexes:
                obj = self.catalog.index(stmt.name).table
            self._access("DROP", obj).whole_object = True
            return self._finish("DROP", read_only=False, ddl=True)
        if isinstance(stmt, ast.DropViewStatement):
            for name in stmt.names:
                self._access("DROP", name).whole_object = True
            return self._finish("DROP", read_only=False, ddl=True)
        if isinstance(stmt, ast.AlterTableStatement):
            self._access("ALTER", stmt.table).whole_object = True
            return self._finish("ALTER", read_only=False, ddl=True)
        if isinstance(
            stmt,
            (
                ast.BeginStatement,
                ast.CommitStatement,
                ast.RollbackStatement,
                ast.SavepointStatement,
                ast.ReleaseSavepointStatement,
            ),
        ):
            return self._finish("TRANSACTION", read_only=True, transaction=True)
        if isinstance(stmt, ast.AnalyzeStatement):
            # maintenance runs on the table-owner (ALTER) surface; a bare
            # ANALYZE targets every table the catalog knows about
            if stmt.table is not None:
                self._access("ALTER", stmt.table).whole_object = True
            elif self.catalog is not None:
                for schema in self.catalog.tables.values():
                    self._access("ALTER", schema.name).whole_object = True
            return self._finish("ALTER", read_only=False)
        if isinstance(stmt, (ast.GrantStatement, ast.RevokeStatement)):
            for obj in stmt.objects:
                self._access("GRANT", obj).whole_object = True
            return self._finish("GRANT", read_only=False)
        return self._finish("OTHER", read_only=False)

    # ------------------------------------------------------------- helpers

    def _finish(
        self,
        action: str,
        read_only: bool,
        ddl: bool = False,
        transaction: bool = False,
    ) -> StatementAnalysis:
        return StatementAnalysis(
            action=action,
            accesses=tuple(
                ObjectAccess(
                    access_action, obj, frozenset(claim.columns), claim.whole_object
                )
                for (access_action, obj), claim in self.claims.items()
            ),
            is_read_only=read_only,
            is_ddl=ddl,
            is_transaction_control=transaction,
        )

    def _access(self, action: str, obj: str) -> _Claim:
        key = (action, obj.lower())
        claim = self.claims.get(key)
        if claim is None:
            claim = self.claims[key] = _Claim()
        return claim

    def _walk_block(self, table: str, exprs: list[ast.Expr | None]) -> None:
        """Walk an UPDATE's / DELETE's expressions in the scope of its table."""
        self.scopes.append({table.lower(): table.lower()})
        for expr in exprs:
            if expr is not None:
                self._walk_expr(expr, self.scopes)
        self.scopes.pop()

    def _analyze_select(self, stmt: ast.SelectStatement) -> None:
        # FROM first: a derived table sees the enclosing blocks, not its
        # siblings, so it is analysed before this block's scope is pushed
        scope: _Scope = {}
        for source in stmt.from_sources:
            self._bind_source(source, scope)
        for join in stmt.joins:
            self._bind_source(join.source, scope)

        self.scopes.append(scope)
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                self._claim_star(item.expr, self.scopes)
            else:
                self._walk_expr(item.expr, self.scopes)
        for expr in (stmt.where, stmt.having):
            if expr is not None:
                self._walk_expr(expr, self.scopes)
        for expr in stmt.group_by:
            self._walk_expr(expr, self.scopes)
        for order in stmt.order_by:
            self._walk_expr(order.expr, self.scopes)
        for join in stmt.joins:
            if join.condition is not None:
                self._walk_expr(join.condition, self.scopes)
        self.scopes.pop()
        if stmt.set_op is not None:
            self._analyze_select(stmt.set_op[1])

    def _bind_source(
        self, source: "ast.TableRef | ast.SubqueryRef", scope: _Scope
    ) -> None:
        if isinstance(source, ast.SubqueryRef):
            self._analyze_select(source.subquery)
            scope[source.alias.lower()] = None
            return
        self._access("SELECT", source.name)
        scope[source.binding.lower()] = source.name.lower()

    def _claim_star(self, star: ast.Star, scopes: list[_Scope]) -> None:
        if star.table:
            qualifier = star.table.lower()
            obj = next(
                (scope[qualifier] for scope in reversed(scopes) if qualifier in scope),
                qualifier,
            )
            if obj is not None:
                self._access("SELECT", obj).whole_object = True
        else:
            for obj in set(scopes[-1].values()) - {None}:
                self._access("SELECT", obj).whole_object = True

    def _attribute_column(
        self, ref: ast.ColumnRef, scopes: list[_Scope], action: str
    ) -> None:
        name = ref.name.lower()
        if ref.table:
            qualifier = ref.table.lower()
            for scope in reversed(scopes):
                if qualifier in scope:
                    obj = scope[qualifier]
                    if obj is not None:
                        self._access(action, obj).columns.add(name)
                    return
            return  # a qualifier no block binds: the statement cannot run
        # unqualified: the nearest block with a table that (per catalog)
        # has the column binds it; objects of unknown shape may bind it too
        for scope in reversed(scopes):
            bound = False
            for obj in set(scope.values()) - {None}:
                if self.catalog is not None and self.catalog.has_table(obj):
                    if not self.catalog.table(obj).has_column(name):
                        continue
                    bound = True
                self._access(action, obj).columns.add(name)
            if bound:
                return

    def _walk_expr(self, expr: ast.Expr, scopes: list[_Scope]) -> None:
        """Attribute the columns ``expr`` reads, claim its stars, analyze its
        subqueries (IN's after its operand: ``accesses`` is first-seen order)."""
        if isinstance(expr, ast.ColumnRef):
            self._attribute_column(expr, scopes, "SELECT")
        elif isinstance(expr, ast.Star):
            if expr.table:
                self._claim_star(expr, scopes)
        elif isinstance(expr, (ast.ExistsExpr, ast.ScalarSubquery)):
            self._analyze_select(expr.subquery)
        else:
            for child in ast.children(expr):
                self._walk_expr(child, scopes)
            if isinstance(expr, ast.InExpr) and not isinstance(expr.candidates, list):
                self._analyze_select(expr.candidates)


class ReferenceAnalyzer(ParentAnalyzer):
    """The analyzer with its expression walk as it was; everything else
    (statement dispatch, binding, attribution) is the code under test."""

    def _walk_expr(self, expr, binding_map, read_action="SELECT"):
        if isinstance(expr, ast.ColumnRef):
            self._attribute_column(expr, binding_map, read_action)
        elif isinstance(expr, ast.Star):
            if expr.table:
                self._claim_star(expr, binding_map)
        elif isinstance(expr, ast.BinaryOp):
            self._walk_expr(expr.left, binding_map, read_action)
            self._walk_expr(expr.right, binding_map, read_action)
        elif isinstance(expr, ast.UnaryOp):
            self._walk_expr(expr.operand, binding_map, read_action)
        elif isinstance(expr, ast.FunctionCall):
            for arg in expr.args:
                self._walk_expr(arg, binding_map, read_action)
        elif isinstance(expr, ast.CaseExpr):
            if expr.operand is not None:
                self._walk_expr(expr.operand, binding_map, read_action)
            for when, then in expr.whens:
                self._walk_expr(when, binding_map, read_action)
                self._walk_expr(then, binding_map, read_action)
            if expr.default is not None:
                self._walk_expr(expr.default, binding_map, read_action)
        elif isinstance(expr, ast.InExpr):
            self._walk_expr(expr.operand, binding_map, read_action)
            if isinstance(expr.candidates, ast.SelectStatement):
                self._analyze_select(expr.candidates)
            else:
                for candidate in expr.candidates:
                    self._walk_expr(candidate, binding_map, read_action)
        elif isinstance(expr, ast.BetweenExpr):
            self._walk_expr(expr.operand, binding_map, read_action)
            self._walk_expr(expr.low, binding_map, read_action)
            self._walk_expr(expr.high, binding_map, read_action)
        elif isinstance(expr, ast.LikeExpr):
            self._walk_expr(expr.operand, binding_map, read_action)
            self._walk_expr(expr.pattern, binding_map, read_action)
        elif isinstance(expr, ast.IsNullExpr):
            self._walk_expr(expr.operand, binding_map, read_action)
        elif isinstance(expr, ast.ExistsExpr):
            self._analyze_select(expr.subquery)
        elif isinstance(expr, ast.ScalarSubquery):
            self._analyze_select(expr.subquery)
        elif isinstance(expr, ast.CastExpr):
            self._walk_expr(expr.operand, binding_map, read_action)


# --------------------------------------------------------------------------
# trees and statements
# --------------------------------------------------------------------------

#: ``u.a`` shadows ``t.a``; ``zz`` is in no table; ``x`` / ``T`` qualifiers
#: are an unknown (correlated) binding and a case variant of a known one
NAMES = ["a", "b", "c", "d", "A", "zz"]
QUALIFIERS = [None, None, "t", "u", "s", "x", "T"]
TABLES = [("t", None), ("u", None), ("t", "s"), ("u", "x"), ("nosuch", None)]

literals = st.builds(
    ast.Literal, st.one_of(st.none(), st.integers(-2, 2), st.sampled_from(["p", "q%"]))
)
columns = st.builds(ast.ColumnRef, st.sampled_from(NAMES), st.sampled_from(QUALIFIERS))
stars = st.builds(ast.Star, st.sampled_from([None, None, "t", "s", "x"]))
#: a leaf aggregate, so COUNT-only outputs are drawn often enough to matter
count_star = st.builds(
    ast.FunctionCall, st.just("COUNT"), st.lists(stars, max_size=1), st.booleans()
)
FUNCTIONS = ["COUNT", "SUM", "AVG", "MAX", "GROUP_CONCAT", "UPPER", "ABS", "COALESCE"]


def _table(pair):
    return ast.TableRef(*pair)


def _subqueries(exprs):
    return st.builds(
        lambda source, item, where: ast.SelectStatement(
            items=[ast.SelectItem(item)], from_sources=[_table(source)], where=where
        ),
        st.sampled_from(TABLES),
        st.one_of(exprs, stars),
        st.none() | exprs,
    )


def _extend(exprs, opaque=True):
    """Every composite kind over ``exprs``; with ``opaque`` also stars as
    function arguments and the three subquery forms."""
    arguments = st.one_of(exprs, stars) if opaque else exprs
    candidates = st.lists(exprs, min_size=1, max_size=3)
    kinds = [
        st.builds(ast.BinaryOp, st.sampled_from(["+", "=", "<", "AND", "OR"]), exprs, exprs),
        st.builds(ast.UnaryOp, st.sampled_from(["-", "NOT"]), exprs),
        st.builds(
            ast.FunctionCall,
            st.sampled_from(FUNCTIONS),
            st.lists(arguments, max_size=3),
            st.booleans(),
        ),
        st.builds(
            ast.CaseExpr,
            st.none() | exprs,
            st.lists(st.tuples(exprs, exprs), min_size=1, max_size=3),
            st.none() | exprs,
        ),
        st.builds(ast.BetweenExpr, exprs, exprs, exprs, st.booleans()),
        st.builds(ast.LikeExpr, exprs, exprs, st.booleans(), st.booleans()),
        st.builds(ast.IsNullExpr, exprs, st.booleans()),
        st.builds(ast.CastExpr, exprs, st.sampled_from(["INT", "TEXT"])),
    ]
    if opaque:
        subqueries = _subqueries(exprs)
        candidates = st.one_of(candidates, subqueries)
        kinds.append(st.builds(ast.ExistsExpr, subqueries, st.booleans()))
        kinds.append(st.builds(ast.ScalarSubquery, subqueries))
    kinds.append(st.builds(ast.InExpr, exprs, candidates, st.booleans()))
    return st.one_of(kinds)


#: all 14 kinds anywhere
exprs = st.recursive(
    st.one_of(literals, columns, stars, count_star), _extend, max_leaves=14
)
#: no star and no subquery, so the column set is determinable
plain_exprs = st.recursive(
    st.one_of(literals, columns, count_star),
    lambda inner: _extend(inner, opaque=False),
    max_leaves=10,
)
#: no column either: the COUNT-only outputs that skip the rid sort
counting_exprs = st.recursive(
    st.one_of(literals, count_star), lambda inner: _extend(inner, opaque=False), max_leaves=4
)


@st.composite
def selects(draw):
    """A SELECT whose every expression position draws from one of three
    tree families: all kinds, plain, or plain with COUNT-only output."""
    mode = draw(st.sampled_from(["all", "plain", "counting"]))
    trees = exprs if mode == "all" else plain_exprs
    maybe_trees = st.none() | trees
    outputs = counting_exprs if mode == "counting" else trees
    sources = draw(st.lists(st.sampled_from(TABLES), min_size=1, max_size=3))
    first = _table(sources[0])
    if draw(st.booleans()):
        first = ast.SubqueryRef(draw(_subqueries(exprs)), "d")
    joins = [
        ast.Join(draw(st.sampled_from(["INNER", "LEFT", "CROSS"])), _table(s), draw(maybe_trees))
        for s in sources[1:]
    ]
    item_exprs = outputs if mode == "counting" else st.one_of(trees, stars, count_star)
    items = draw(
        st.lists(st.builds(ast.SelectItem, item_exprs, st.none()), min_size=1, max_size=3)
    )
    set_op = None
    if mode != "counting" and draw(st.integers(0, 4)) == 0:
        set_op = (draw(st.sampled_from(["UNION", "EXCEPT"])), draw(_subqueries(exprs)))
    return ast.SelectStatement(
        items=items,
        from_sources=[first],
        joins=joins,
        where=draw(maybe_trees),
        group_by=[] if mode == "counting" else draw(st.lists(trees, max_size=2)),
        having=draw(st.none() | outputs),
        order_by=draw(st.lists(st.builds(ast.OrderItem, outputs, st.booleans()), max_size=2)),
        distinct=mode != "counting" and draw(st.integers(0, 3)) == 0,
        set_op=set_op,
    )


dml_trees = st.one_of(exprs, plain_exprs)
updates = st.builds(
    ast.UpdateStatement,
    st.sampled_from(["t", "u"]),
    st.lists(st.tuples(st.sampled_from(["a", "b"]), dml_trees), min_size=1, max_size=2),
    st.none() | dml_trees,
)
deletes = st.builds(ast.DeleteStatement, st.sampled_from(["t", "u"]), st.none() | dml_trees)


@pytest.fixture(scope="module")
def catalog():
    db = Database(owner="admin")
    session = db.connect("admin")
    session.execute("CREATE TABLE t (a INT, b INT, c TEXT)")
    session.execute("CREATE TABLE u (a INT, d TEXT)")
    return db.catalog


def _footprint(result):
    return (
        result.action,
        [(a.action, a.obj, sorted(a.columns), a.whole_object) for a in result.accesses],
    )


def _nodes(node):
    """Every AST node under ``node``, subqueries and FROM sources included."""
    if isinstance(node, (list, tuple)):
        for part in node:
            yield from _nodes(part)
    elif dataclasses.is_dataclass(node):
        yield node
        for item in dataclasses.fields(node):
            yield from _nodes(getattr(node, item.name))


def _binds_like_the_reference(stmt, result, catalog):
    """The draws the reference reads exactly: every source a base table of
    ``catalog`` and every name bound — to a column, or to an output column
    by ORDER BY."""
    nodes = list(_nodes(stmt))
    binding = result.binding
    return (
        catalog is not None
        and binding.error is None
        and all(
            catalog.has_table(node.name)
            for node in nodes
            if isinstance(node, (ast.TableRef, ast.SubqueryRef))
            and not isinstance(node, ast.SubqueryRef)
        )
        and not any(isinstance(node, ast.SubqueryRef) for node in nodes)
        and all(
            id(node) in binding.slots or id(node) in binding.order
            for node in nodes
            if isinstance(node, ast.ColumnRef)
        )
    )


def assert_footprint_follows_reference(stmt, catalog):
    """The binder's footprint is the reference's where the reference reads
    every name right, and never claims more than it anywhere: the same
    objects or fewer, each with a subset of its columns and, when the
    statement binds, the same ``whole_object`` flag. (A star whose
    qualifier binds nowhere made the reference claim whatever object the
    qualifier spells; the binder refuses the statement instead.)"""
    result = analysis.analyze(stmt, catalog)
    new = {(a.action, a.obj): (a.columns, a.whole_object) for a in result.accesses}
    old = {
        (a.action, a.obj): (a.columns, a.whole_object)
        for a in ReferenceAnalyzer(catalog).run(stmt).accesses
    }
    if _binds_like_the_reference(stmt, result, catalog):
        assert new == old
        return
    assert new.keys() <= old.keys()
    for key, (columns, whole) in new.items():
        assert columns <= old[key][0], key
        assert whole == old[key][1] or result.binding.error is not None, key


def _aggregates(collect, stmt):
    out = []
    for item in stmt.items:
        collect(item.expr, out)
    collect(stmt.having, out)
    for order in stmt.order_by:
        collect(order.expr, out)
    return out


# --------------------------------------------------------------------------
# the passes against their references
# --------------------------------------------------------------------------


@settings(max_examples=300)
@given(stmt=selects())
def test_select_passes_match_reference(stmt, catalog):
    exprs = _statement_exprs(stmt)
    assert _referenced_names(exprs) == reference_referenced_names(exprs)
    for expr in exprs:
        found, expected = [], []
        collect_aggregates(expr, found)
        reference_collect_aggregates(expr, expected)
        assert list(map(id, found)) == list(map(id, expected))
    aggregates = _aggregates(collect_aggregates, stmt)
    assert list(map(id, aggregates)) == list(
        map(id, _aggregates(reference_collect_aggregates, stmt))
    )
    assert _order_insensitive_output(stmt, aggregates) == (
        reference_order_insensitive_output(stmt, aggregates)
    )
    assert_footprint_follows_reference(stmt, catalog)


@settings(max_examples=200)
@given(stmt=st.one_of(updates, deletes))
def test_dml_passes_match_reference(stmt, catalog):
    assert _referenced_names([stmt.where]) == reference_referenced_names([stmt.where])
    for cat in (catalog, None):
        assert_footprint_follows_reference(stmt, cat)


def test_count_only_output_skips_the_sort():
    """The draws above reach both answers; pin the one that matters."""
    count = ast.FunctionCall("COUNT", [ast.Star()])
    stmt = ast.SelectStatement(
        items=[ast.SelectItem(ast.BinaryOp("+", count, ast.Literal(1)))],
        from_sources=[ast.TableRef("t")],
        where=ast.BinaryOp("=", ast.ColumnRef("a"), ast.Literal(1)),
    )
    aggregates = _aggregates(collect_aggregates, stmt)
    assert aggregates == [count] and aggregates[0] is count
    assert _order_insensitive_output(stmt, aggregates)
    assert _referenced_names(_statement_exprs(stmt)) == {"a"}


@pytest.fixture(scope="module")
def small():
    """A database of two small tables, an admin and a user without grants."""
    db = Database(owner="admin")
    admin = db.connect("admin")
    admin.execute_script(
        "CREATE TABLE t (a INT, b INT, c TEXT);"
        "CREATE TABLE u (a INT, d TEXT);"
        "INSERT INTO t VALUES (1, 2, 'p'), (2, NULL, 'q'), (NULL, 0, NULL);"
        "INSERT INTO u VALUES (1, 'p'), (3, 'x')"
    )
    db.create_user("user")
    return db


def _outcome(session, stmt):
    try:
        return repr(session.execute_statement(stmt).rows)
    except MiniDBError as exc:
        return type(exc).__name__


@settings(max_examples=150, deadline=None)
@given(stmt=selects())
def test_the_footprint_is_the_privilege_needed(stmt, small):
    """A user granted exactly the footprint's columns (the whole object
    where it claims one, any one column where it names none) gets what
    the owner gets — on every statement whose names all bind, so the
    binder's answer is the one to check."""
    result = analysis.analyze(stmt, small.catalog)
    if result.binding.error is not None:
        return
    admin = small.connect("admin")
    expected = _outcome(admin, stmt)
    grants = []
    for access in result.accesses:
        columns = access.column_set()
        if columns == frozenset():
            columns = small.catalog.table(access.obj).column_names()[-1:]
        listed = "" if columns is None else f" ({', '.join(sorted(columns))})"
        grants.append(f"SELECT{listed} ON {access.obj}")
    for grant in grants:
        admin.execute(f"GRANT {grant} TO user")
    try:
        assert _outcome(small.connect("user"), stmt) == expected
    finally:
        for grant in grants:
            admin.execute(f"REVOKE {grant} FROM user")


def test_in_subquery_footprint_is_operand_then_subquery(catalog):
    sub = ast.SelectStatement(
        items=[ast.SelectItem(ast.ColumnRef("d"))], from_sources=[ast.TableRef("u")]
    )
    stmt = ast.SelectStatement(
        items=[ast.SelectItem(ast.Literal(1))],
        from_sources=[ast.TableRef("t")],
        where=ast.InExpr(ast.ColumnRef("b"), sub),
    )
    accesses = analysis.analyze(stmt, catalog).accesses
    assert [(a.obj, a.columns) for a in accesses] == [("t", {"b"}), ("u", {"d"})]


# --------------------------------------------------------------------------
# children itself
# --------------------------------------------------------------------------

EXPR_KINDS = sorted(
    (
        kind
        for kind in vars(ast).values()
        if isinstance(kind, type) and issubclass(kind, ast.Expr) and kind is not ast.Expr
    ),
    key=lambda kind: kind.__name__,
)
SUBQUERY = ast.SelectStatement(items=[ast.SelectItem(ast.ColumnRef("inner"))])


def _with_markers(kind):
    """``kind`` built with a distinct marker in every expression slot of
    its fields, and those markers in field order."""
    counter = itertools.count()

    def marker():
        return ast.Literal(f"marker {next(counter)}")

    values, markers = {}, []
    for field in dataclasses.fields(kind):
        shape = field.type.replace(" ", "").replace('"', "").replace("'", "")
        if shape in ("Expr", "Expr|None"):
            value = marker()
            markers.append(value)
        elif shape in ("list[Expr]", "list[Expr]|SelectStatement"):
            value = [marker(), marker(), marker()]
            markers.extend(value)
        elif shape == "list[tuple[Expr,Expr]]":
            value = [(marker(), marker()), (marker(), marker())]
            markers.extend(part for pair in value for part in pair)
        elif shape == "SelectStatement":
            value = SUBQUERY
        elif "Expr" in shape or "Select" in shape:
            pytest.fail(f"{kind.__name__}.{field.name}: no marker rule for {shape}")
        else:
            value = field.default if field.default is not dataclasses.MISSING else "x"
        values[field.name] = value
    return kind(**values), markers


def test_every_expr_kind_is_covered():
    assert len(EXPR_KINDS) == 15


@pytest.mark.parametrize("kind", EXPR_KINDS, ids=lambda kind: kind.__name__)
def test_children_is_every_expr_field_in_order(kind):
    node, markers = _with_markers(kind)
    assert list(map(id, ast.children(node))) == list(map(id, markers))


def test_children_skips_absent_parts_and_subqueries():
    a, b, c = ast.Literal(1), ast.Literal(2), ast.Literal(3)
    assert list(ast.children(ast.CaseExpr(None, [(a, b)], None))) == [a, b]
    assert list(ast.children(ast.CaseExpr(a, [(b, c)], None))) == [a, b, c]
    assert list(ast.children(ast.InExpr(a, SUBQUERY))) == [a]
    assert list(ast.children(ast.ExistsExpr(SUBQUERY))) == []
    assert list(ast.children(ast.ScalarSubquery(SUBQUERY))) == []


def test_children_of_an_unknown_kind_raises():
    @dataclasses.dataclass(frozen=True)
    class Unlisted(ast.Expr):
        operand: ast.Expr

    with pytest.raises(KeyError):
        ast.children(Unlisted(ast.Literal(1)))
