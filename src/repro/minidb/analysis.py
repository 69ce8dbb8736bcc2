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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast_nodes as ast
from .catalog import Catalog


@dataclass
class ObjectAccess:
    """One object touched by a statement, with the action and column set."""

    action: str
    obj: str
    columns: set[str] = field(default_factory=set)
    whole_object: bool = False  # SELECT * or DDL — needs the full object

    def column_set(self) -> set[str] | None:
        """Columns needed for a privilege check (None = whole object)."""
        if self.whole_object:
            return None
        return self.columns or None


@dataclass
class StatementAnalysis:
    """Full access footprint of a statement."""

    action: str  # the primary action (what tool should run it)
    accesses: list[ObjectAccess] = field(default_factory=list)
    is_read_only: bool = True
    is_ddl: bool = False
    is_transaction_control: bool = False

    def objects(self) -> list[str]:
        seen: list[str] = []
        for access in self.accesses:
            if access.obj not in seen:
                seen.append(access.obj)
        return seen


_WRITE_ACTIONS = {"INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER"}


def analyze(stmt: ast.Statement, catalog: Catalog | None = None) -> StatementAnalysis:
    """Compute the access footprint of ``stmt``.

    ``catalog`` (optional) improves column attribution for unqualified
    references and resolves view definitions to their underlying tables'
    *view object* (privileges in minidb attach to the view itself, as in
    PostgreSQL, so no recursion into the view body is done here).
    """
    analyzer = _Analyzer(catalog)
    return analyzer.run(stmt)


class _Analyzer:
    def __init__(self, catalog: Catalog | None):
        self.catalog = catalog
        self.accesses: list[ObjectAccess] = []

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
            binding_map = {stmt.table.lower(): stmt.table}
            for _, expr in stmt.assignments:
                self._walk_expr(expr, binding_map)
            if stmt.where is not None:
                self._walk_expr(stmt.where, binding_map)
            return self._finish("UPDATE", read_only=False)
        if isinstance(stmt, ast.DeleteStatement):
            self._access("DELETE", stmt.table).whole_object = True
            if stmt.where is not None:
                self._walk_expr(stmt.where, {stmt.table.lower(): stmt.table})
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
            result = self._finish("TRANSACTION", read_only=True)
            result.is_transaction_control = True
            return result
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
        self, action: str, read_only: bool, ddl: bool = False
    ) -> StatementAnalysis:
        return StatementAnalysis(
            action=action,
            accesses=self.accesses,
            is_read_only=read_only,
            is_ddl=ddl,
        )

    def _access(self, action: str, obj: str) -> ObjectAccess:
        key = obj.lower()
        for access in self.accesses:
            if access.action == action and access.obj == key:
                return access
        access = ObjectAccess(action, key)
        self.accesses.append(access)
        return access

    def _analyze_select(self, stmt: ast.SelectStatement) -> None:
        binding_map: dict[str, str] = {}  # binding (lower) -> object name (lower)
        for source in stmt.from_sources:
            self._bind_source(source, binding_map)
        for join in stmt.joins:
            self._bind_source(join.source, binding_map)

        for item in stmt.items:
            self._walk_expr(item.expr, binding_map)
        for expr in (stmt.where, stmt.having):
            if expr is not None:
                self._walk_expr(expr, binding_map)
        for expr in stmt.group_by:
            self._walk_expr(expr, binding_map)
        for order in stmt.order_by:
            self._walk_expr(order.expr, binding_map)
        for join in stmt.joins:
            if join.condition is not None:
                self._walk_expr(join.condition, binding_map)
        if stmt.set_op is not None:
            self._analyze_select(stmt.set_op[1])

    def _bind_source(
        self, source: "ast.TableRef | ast.SubqueryRef", binding_map: dict[str, str]
    ) -> None:
        if isinstance(source, ast.SubqueryRef):
            self._analyze_select(source.subquery)
            return
        self._access("SELECT", source.name)
        binding_map[source.binding.lower()] = source.name.lower()

    def _claim_star(self, star: ast.Star, binding_map: dict[str, str]) -> None:
        if star.table:
            obj = binding_map.get(star.table.lower(), star.table.lower())
            self._access("SELECT", obj).whole_object = True
        else:
            for obj in set(binding_map.values()):
                self._access("SELECT", obj).whole_object = True

    def _attribute_column(
        self, ref: ast.ColumnRef, binding_map: dict[str, str], action: str
    ) -> None:
        if ref.table:
            obj = binding_map.get(ref.table.lower())
            if obj is None:
                return  # correlated reference to an outer query's binding
            self._access(action, obj).columns.add(ref.name.lower())
            return
        # unqualified: attribute to every table that (per catalog) has it,
        # or to all tables when no catalog is available
        candidates = []
        for obj in set(binding_map.values()):
            if self.catalog is not None and self.catalog.has_table(obj):
                if self.catalog.table(obj).has_column(ref.name):
                    candidates.append(obj)
            else:
                candidates.append(obj)
        for obj in candidates:
            self._access(action, obj).columns.add(ref.name.lower())

    def _walk_expr(self, expr: ast.Expr, binding_map: dict[str, str]) -> None:
        """Attribute the columns ``expr`` reads, claim its stars, analyze its
        subqueries (IN's after its operand: ``accesses`` is first-seen order)."""
        if isinstance(expr, ast.ColumnRef):
            self._attribute_column(expr, binding_map, "SELECT")
        elif isinstance(expr, ast.Star):
            self._claim_star(expr, binding_map)
        elif isinstance(expr, (ast.ExistsExpr, ast.ScalarSubquery)):
            self._analyze_select(expr.subquery)
        else:
            for child in ast.children(expr):
                self._walk_expr(child, binding_map)
            if isinstance(expr, ast.InExpr) and not isinstance(expr.candidates, list):
                self._analyze_select(expr.candidates)
