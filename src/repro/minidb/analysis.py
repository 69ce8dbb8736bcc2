"""Static analysis of parsed SQL statements.

Answers, without executing anything: *which privilege action does this
statement need, on which objects, touching which columns?* This single
analysis is shared by two security layers:

* minidb's own privilege enforcement (database-side), and
* BridgeScope's object-level tool verification (user-side policy), per
  Section 2.3(2) of the paper.

Column attribution is conservative: an unqualified column that exists in
several FROM tables is attributed to all of them, and ``SELECT *`` claims
every column of every source. Over-attribution can only make security
checks stricter, never looser.

A column reference resolves as the executor resolves it: in the nearest
enclosing query block that binds it, so a subquery's reference to an outer
query's table (``a.secret``, or a bare ``secret`` no inner table has) is
attributed to that outer table. Where the catalog cannot say whether a
block binds a bare name (a view, a derived table, no catalog at all), the
name is attributed there *and* resolution goes on outward.

The result depends on the statement's shape and the catalog, never on its
literal values, so :func:`analyze` computes it once per parse template and
catalog version (:func:`repro.minidb.parser.shared_analysis`). It is
immutable, because callers on several threads share one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast_nodes as ast
from .catalog import Catalog
from .parser import shared_analysis


@dataclass(frozen=True)
class ObjectAccess:
    """One object touched by a statement, with the action and column set."""

    action: str
    obj: str
    columns: frozenset[str] = frozenset()
    whole_object: bool = False  # SELECT * or DDL — needs the full object

    def column_set(self) -> frozenset[str] | None:
        """Columns needed for a privilege check (None = whole object)."""
        if self.whole_object:
            return None
        return self.columns or None


@dataclass(frozen=True)
class StatementAnalysis:
    """Full access footprint of a statement."""

    action: str  # the primary action (what tool should run it)
    accesses: tuple[ObjectAccess, ...] = ()
    is_read_only: bool = True
    is_ddl: bool = False
    is_transaction_control: bool = False

    def objects(self) -> list[str]:
        seen: list[str] = []
        for access in self.accesses:
            if access.obj not in seen:
                seen.append(access.obj)
        return seen


def analyze(stmt: ast.Statement, catalog: Catalog | None = None) -> StatementAnalysis:
    """Compute the access footprint of ``stmt``.

    ``catalog`` (optional) improves column attribution for unqualified
    references and resolves view definitions to their underlying tables'
    *view object* (privileges in minidb attach to the view itself, as in
    PostgreSQL, so no recursion into the view body is done here).
    """
    version = None if catalog is None else catalog.version
    return shared_analysis(stmt, version, lambda: _Analyzer(catalog).run(stmt))


@dataclass
class _Claim:
    """An access being collected; frozen into an :class:`ObjectAccess`."""

    columns: set[str] = field(default_factory=set)
    whole_object: bool = False


#: one query block's bindings: name (lower) -> object (lower), or ``None``
#: for a derived table, whose columns its own analysis attributed
_Scope = dict[str, "str | None"]


class _Analyzer:
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
            self._claim_star(expr, scopes)
        elif isinstance(expr, (ast.ExistsExpr, ast.ScalarSubquery)):
            self._analyze_select(expr.subquery)
        else:
            for child in ast.children(expr):
                self._walk_expr(child, scopes)
            if isinstance(expr, ast.InExpr) and not isinstance(expr.candidates, list):
                self._analyze_select(expr.candidates)
