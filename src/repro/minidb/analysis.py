"""Static analysis of parsed SQL statements: the binder and the footprint.

Answers, without executing anything: *which column does each name mean,
which privilege action does this statement need, on which objects,
touching which columns?* One walk answers both (:class:`_Binder`), and
its result is shared by:

* the planner and both expression engines, which read each column
  reference's slot (:class:`Binding`) instead of resolving names again;
* minidb's own privilege enforcement (database-side), and
* BridgeScope's object-level tool verification (user-side policy), per
  Section 2.3(2) of the paper.

**Binding.** Every query block's sources expose their columns: a base
table its catalog columns, a view the output of its own body (bound on
its own, with no outer scope — a view never reads its caller's columns),
a derived table its expanded select list, a system view its fixed
columns. A column reference binds in the nearest enclosing block that
exposes it, as PostgreSQL's ``transformColumnRef`` does: a qualifier
picks the block that binds it, a bare name the nearest block where some
source has it, and a name two columns of that block share is ambiguous.
Its slot is ``(depth, binding, column)``, ``depth`` counted in the hops
the executor's scope chain takes outward. The first name error — an
unknown relation, column or star qualifier, an ambiguous name, an alias
used twice in one FROM, an ORDER BY key PostgreSQL refuses at analysis
(42P10) — is recorded, in PostgreSQL's transform order, and raised before
any lock is taken or any row is read.

**Footprint.** Each bound reference is attributed to the object behind
its source (a derived table's own body attributes its columns), and
``SELECT *`` claims every column of every source. Where the catalog
cannot say what a source exposes (a relation it lacks; with no catalog,
every relation) a bare name is attributed there *and* resolution goes on
outward. Over-attribution can only make security checks stricter, never
looser.

The result depends on the statement's shape and the catalog, never on its
literal values — :class:`ast.ColumnRef` and :class:`ast.Star` nodes hold
no literal, so every statement bound from one parse template shares them
and slots keyed by node identity serve them all. :func:`analyze`
therefore computes it once per template and catalog version
(:func:`repro.minidb.parser.shared_analysis`). It is immutable, because
callers on several threads share one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

from ..obs.views import SYSTEM_VIEW_COLUMNS, is_system_relation
from . import ast_nodes as ast
from .catalog import Catalog
from .errors import (
    CatalogError,
    DuplicateAliasError,
    DuplicateColumnError,
    ExecutionError,
    InvalidColumnReferenceError,
    MiniDBError,
    UnknownColumnError,
    UnknownTableError,
)
from .parser import shared_analysis

#: ``(depth, binding, column)``: the scope hops outward, the source's
#: binding as the plan names it, and the column as the source stores it
Slot = tuple[int, str, str]


@dataclass(frozen=True)
class ObjectAccess:
    """One object touched by a statement, with the action and column set."""

    action: str
    obj: str
    columns: frozenset[str] = frozenset()
    whole_object: bool = False  # SELECT * or DDL — needs the full object

    def column_set(self) -> frozenset[str] | None:
        """Columns needed for a privilege check (None = whole object).

        A SELECT that names no column of the object (``SELECT COUNT(*)
        FROM t``) needs the empty set, which SELECT on any one column of
        it covers, as in PostgreSQL; any other action naming no column
        needs the whole object."""
        if self.whole_object:
            return None
        if self.columns or self.action == "SELECT":
            return self.columns
        return None


@dataclass(frozen=True, eq=False)
class Binding:
    """What every name of one statement means, keyed by node identity.

    ``slots`` maps each bound :class:`ast.ColumnRef` to its :data:`Slot`;
    ``stars`` each select-list :class:`ast.Star` to the items it expands
    to (their references are slotted too); ``order`` each ORDER BY name
    that names an output column to that column's position; ``error`` is
    the statement's first name error (:meth:`check` raises it), and
    ``version`` the catalog version it was bound under."""

    slots: Mapping[int, Slot] = field(default_factory=dict)
    stars: Mapping[int, tuple[ast.SelectItem, ...]] = field(default_factory=dict)
    order: Mapping[int, int] = field(default_factory=dict)
    error: MiniDBError | None = None
    version: object = None

    def check(self) -> None:
        """Raise the recorded name error, if there is one (a fresh
        instance: the binding is shared by every caller)."""
        if self.error is not None:
            raise type(self.error)(self.error.message)

    def items(self, stmt: ast.SelectStatement) -> list[ast.SelectItem]:
        """``stmt``'s select list with every star expanded."""
        items: list[ast.SelectItem] = []
        for item in stmt.items:
            if type(item.expr) is ast.Star:
                items.extend(self.stars[id(item.expr)])
            else:
                items.append(item)
        return items


@dataclass(frozen=True)
class StatementAnalysis:
    """Full access footprint of a statement, and its binding."""

    action: str  # the primary action (what tool should run it)
    accesses: tuple[ObjectAccess, ...] = ()
    is_read_only: bool = True
    is_ddl: bool = False
    is_transaction_control: bool = False
    binding: Binding = field(default_factory=Binding, compare=False, repr=False)

    def objects(self) -> list[str]:
        seen: list[str] = []
        for access in self.accesses:
            if access.obj not in seen:
                seen.append(access.obj)
        return seen


def analyze(stmt: ast.Statement, catalog: Catalog | None = None) -> StatementAnalysis:
    """Bind ``stmt`` and compute its access footprint.

    ``catalog`` (optional) supplies the columns every relation exposes;
    privileges in minidb attach to a view itself, as in PostgreSQL, so a
    view's columns are attributed to the view object while its body is
    bound only to learn what it exposes.
    """
    version = None if catalog is None else catalog.version
    return shared_analysis(stmt, version, lambda: _Binder(catalog, version).run(stmt))


def require_columns(catalog: Catalog, name: str, columns: list[str]) -> None:
    """Raise ``UnknownColumnError`` for the first of ``columns`` (a GRANT's)
    that relation ``name`` does not expose (a view: its output names)."""
    exposed = _Binder(catalog, catalog.version)._relation_columns(name) or []
    known = {column.lower() for column in exposed}
    for column in columns:
        if column.lower() not in known:
            raise UnknownColumnError(f"column {column!r} of relation {name!r} does not exist")


def item_name(item: ast.SelectItem, index: int) -> str:
    """The output column name of select item number ``index``."""
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.ColumnRef):
        return item.expr.name
    if isinstance(item.expr, ast.FunctionCall):
        return item.expr.name.lower()
    return f"column{index + 1}"


def _operand_bindings(stmt: ast.SelectStatement) -> set[str]:
    """The FROM / JOIN bindings of every operand of a set operation
    chain, lowercased: the qualifiers its ORDER BY may use."""
    bindings: set[str] = set()
    while stmt is not None:
        for ref in [*stmt.from_sources, *(join.source for join in stmt.joins)]:
            binding = ref.alias if isinstance(ref, ast.SubqueryRef) else ref.binding
            bindings.add(binding.lower())
        stmt = stmt.set_op[1] if stmt.set_op else None
    return bindings


class NameResolver:
    """The one rule for which source column a name means, over one
    block's ``(binding, columns, ...)`` sources (or a join's prefix of
    them), kept in ``sources`` and, by lower-cased binding, ``by_binding``.

    ``qualified`` maps ``binding.column`` and ``unqualified`` a bare
    column name to ``(binding, stored column)``. A name in ``ambiguous``
    — a bare name two columns share, or a ``binding.column`` exposed
    twice (``SELECT a AS x, b AS x``) — names no column. A source whose
    ``columns`` are ``None`` is of unknown shape (the catalog lacks it):
    ``unknown`` lists its binding, and the binder treats every name as
    possibly its."""

    __slots__ = ("sources", "by_binding", "qualified", "unqualified", "ambiguous", "unknown")

    def __init__(self, sources: list):
        self.sources = sources
        self.by_binding = {source[0].lower(): source for source in sources}
        qualified: dict[str, tuple[str, str]] = {}
        by_name: dict[str, list[tuple[str, str]]] = {}
        ambiguous: set[str] = set()
        unknown: list[str] = []
        for binding, columns, *_ in sources:
            if columns is None:
                unknown.append(binding)
                continue
            for col in columns:
                key = f"{binding.lower()}.{col.lower()}"
                if key in qualified:
                    ambiguous.add(key)
                qualified[key] = (binding, col)
                by_name.setdefault(col.lower(), []).append((binding, col))
        ambiguous.update(name for name, refs in by_name.items() if len(refs) > 1)
        self.qualified = qualified
        self.unqualified = {name: refs[0] for name, refs in by_name.items()}
        self.ambiguous = frozenset(ambiguous)
        self.unknown = tuple(unknown)


@dataclass
class _Claim:
    """An access being collected; frozen into an :class:`ObjectAccess`."""

    columns: set[str] = field(default_factory=set)
    whole_object: bool = False


class _Source(NamedTuple):
    binding: str
    columns: list[str] | None  # None: shape unknown
    obj: str | None  # the object its columns are attributed to; None: derived


class _Binder:
    def __init__(self, catalog: Catalog | None, version: object):
        self.catalog = catalog
        self.version = version
        #: (action, object) -> claim, in first-seen order
        self.claims: dict[tuple[str, str], _Claim] = {}
        #: the blocks a name may bind in, innermost last
        self.stack: list[NameResolver] = []
        self.slots: dict[int, Slot] = {}
        self.stars: dict[int, tuple[ast.SelectItem, ...]] = {}
        self.order: dict[int, int] = {}
        self.error: MiniDBError | None = None

    def run(self, stmt: ast.Statement) -> StatementAnalysis:
        if isinstance(stmt, ast.SelectStatement):
            self._bind_select(stmt)
            return self._finish("SELECT", read_only=True)
        if isinstance(stmt, ast.ExplainStatement):
            self._bind_select(stmt.select)
            return self._finish("SELECT", read_only=True)
        if isinstance(stmt, ast.InsertStatement):
            access = self._access("INSERT", stmt.table)
            if stmt.columns:
                access.columns.update(c.lower() for c in stmt.columns)
            else:
                access.whole_object = True
            target = self._target(stmt.table)
            if stmt.select is not None:
                self._bind_select(stmt.select)
            for row in stmt.rows or []:
                self._bind_in([], row)
            self._bind_checks(target)
            return self._finish("INSERT", read_only=False)
        if isinstance(stmt, ast.UpdateStatement):
            access = self._access("UPDATE", stmt.table)
            access.columns.update(c.lower() for c, _ in stmt.assignments)
            target = self._target(stmt.table)
            self._bind_in(
                [target], [stmt.where] + [expr for _, expr in stmt.assignments]
            )
            self._bind_checks(target)
            return self._finish("UPDATE", read_only=False)
        if isinstance(stmt, ast.DeleteStatement):
            self._access("DELETE", stmt.table).whole_object = True
            self._bind_in([self._target(stmt.table)], [stmt.where])
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
            self._bind_new_table(stmt)
            return self._finish("CREATE", read_only=False, ddl=True)
        if isinstance(stmt, ast.CreateIndexStatement):
            self._access("CREATE", stmt.table).whole_object = True
            return self._finish("CREATE", read_only=False, ddl=True)
        if isinstance(stmt, ast.CreateViewStatement):
            self._access("CREATE", stmt.name).whole_object = True
            self._bind_select(stmt.select)
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
            if stmt.column is not None and stmt.column.default is not None:
                self._bind_in([], [stmt.column.default])
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
            binding=Binding(
                self.slots, self.stars, self.order, self.error, self.version
            ),
        )

    def _access(self, action: str, obj: str) -> _Claim:
        key = (action, obj.lower())
        claim = self.claims.get(key)
        if claim is None:
            claim = self.claims[key] = _Claim()
        return claim

    def _fail(self, error: MiniDBError) -> None:
        if self.error is None:
            # a fresh instance: no traceback keeps the caught one's frames
            self.error = type(error)(error.message)

    def _bind_in(self, sources: list[_Source], exprs: list) -> None:
        """Bind ``exprs`` in a block of ``sources`` of their own."""
        self.stack.append(NameResolver(sources))
        for expr in exprs:
            if expr is not None:
                self._bind_expr(expr)
        self.stack.pop()

    # ------------------------------------------------------------- sources

    def _target(self, name: str) -> _Source:
        """The table an INSERT / UPDATE / DELETE writes, as a source."""
        return _Source(name, self._table_columns(name), name.lower())

    def _table_columns(self, name: str) -> list[str] | None:
        if self.catalog is None:
            return None
        try:
            return self.catalog.table(name).column_names()
        except CatalogError as exc:
            self._fail(exc)
            return None

    def _bind_checks(self, target: _Source) -> None:
        """Bind the target table's CHECK expressions, which the statement
        evaluates on every row it writes."""
        if target.columns is not None:
            checks = self.catalog.table(target.binding).checks
            # what a CHECK reads needs no privilege: the row is being written
            self._bind_in([_Source(target.binding, target.columns, None)], checks)

    def _bind_new_table(self, stmt: ast.CreateTableStatement) -> None:
        """A CREATE TABLE's column names must differ (case-insensitively),
        its defaults read no column and its CHECKs read its own."""
        names: list[str] = []
        for cdef in stmt.columns:
            if cdef.name.lower() in names:
                self._fail(
                    DuplicateColumnError(
                        f'column "{cdef.name}" specified more than once'
                    )
                )
            names.append(cdef.name.lower())
        self._bind_in([], [cdef.default for cdef in stmt.columns])
        checks = list(stmt.checks) + [c.check for c in stmt.columns if c.check]
        columns = [cdef.name for cdef in stmt.columns]
        self._bind_in([_Source(stmt.table, columns, None)], checks)

    def _source(
        self, ref: "ast.TableRef | ast.SubqueryRef", sources: list[_Source]
    ) -> _Source:
        """Bind one FROM / JOIN source: what it exposes, and the object
        its columns are attributed to."""
        if isinstance(ref, ast.SubqueryRef):
            # a derived table sees the enclosing blocks, not its siblings
            binding = ref.alias
            source = _Source(binding, self._bind_select(ref.subquery), None)
        else:
            binding = ref.binding
            self._access("SELECT", ref.name)
            source = _Source(binding, self._relation_columns(ref.name), ref.name.lower())
        if any(s.binding.lower() == binding.lower() for s in sources):
            self._fail(
                DuplicateAliasError(f'table name "{binding}" specified more than once')
            )
        return source

    def _relation_columns(self, name: str) -> list[str] | None:
        catalog = self.catalog
        if catalog is None:
            return None
        if is_system_relation(name):
            return SYSTEM_VIEW_COLUMNS[name.lower()]
        if catalog.has_view(name):
            # the body binds on its own — a view never reads its caller —
            # and claims nothing: privileges attach to the view
            outer, claims = self.stack, self.claims
            self.stack, self.claims = [], {}
            try:
                return self._bind_select(catalog.view(name).select)
            finally:
                self.stack, self.claims = outer, claims
        return self._table_columns(name)

    # -------------------------------------------------------------- blocks

    def _bind_select(self, stmt: ast.SelectStatement) -> list[str] | None:
        """Bind one block (and its set-operation arm) in PostgreSQL's
        order: FROM with each ON condition after its source, the select
        list, WHERE, HAVING, ORDER BY, GROUP BY — a set operation's ORDER
        BY after both arms. An ORDER BY ordinal out of range, or a key
        after a set operation that names no output column, is refused at
        its step. Returns its output column names, or None when a star
        cannot be expanded."""
        sources: list[_Source] = []
        for ref in stmt.from_sources:
            sources.append(self._source(ref, sources))
        for join in stmt.joins:
            sources.append(self._source(join.source, sources))
            if join.condition is not None:
                self._bind_in(list(sources), [join.condition])
        resolver = NameResolver(sources)
        self.stack.append(resolver)

        items: list[ast.SelectItem] | None = []
        for item in stmt.items:
            if type(item.expr) is not ast.Star:
                self._bind_expr(item.expr)
                if items is not None:
                    items.append(item)
                continue
            expanded = self._expand(item.expr, resolver)
            if expanded is None:
                items = None
            elif items is not None:
                items.extend(expanded)
        for expr in (stmt.where, stmt.having):
            if expr is not None:
                self._bind_expr(expr)
        set_op = stmt.set_op is not None
        if items is not None:
            names = [item_name(item, index) for index, item in enumerate(items)]
            labels = names if set_op else [item.alias for item in items]
            lowered = [label.lower() if label else None for label in labels]
        refusal = None  # PostgreSQL's 42P10, raised before any row
        operands = _operand_bindings(stmt) if set_op and stmt.order_by else ()
        for order in stmt.order_by:
            expr = order.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                if items is not None and not 1 <= expr.value <= len(items):
                    refusal = refusal or InvalidColumnReferenceError(
                        f"ORDER BY position {expr.value} is out of range"
                    )
            elif (
                set_op
                and type(expr) is ast.ColumnRef
                and expr.table is not None
                and expr.table.lower() not in operands
            ):
                refusal = refusal or UnknownColumnError(f"column {expr} does not exist")
            elif (
                items is not None
                and type(expr) is ast.ColumnRef
                and (set_op or expr.table is None)
                and expr.name.lower() in lowered
            ):
                position = lowered.index(expr.name.lower())
                self.order[id(expr)] = position
                self._claim_item(items[position])
            elif not set_op:
                self._bind_expr(expr)
            elif items is not None:  # after a set operation only outputs are keys
                refusal = refusal or InvalidColumnReferenceError(
                    "ORDER BY after a set operation must use output columns"
                )
        if refusal is not None and not set_op:
            self._fail(refusal)
        for expr in stmt.group_by:
            self._bind_expr(expr)
        self.stack.pop()
        if set_op:
            self._bind_select(stmt.set_op[1])
            if refusal is not None:  # a set operation's ORDER BY follows its arms
                self._fail(refusal)
        return None if items is None else names

    def _expand(self, star: ast.Star, resolver: NameResolver) -> list[ast.SelectItem] | None:
        """A select-list star's items — a column reference to each column
        of its source(s), bound like any other — or None when a source's
        shape is unknown."""
        self._star_claims(star)
        if star.table is not None:
            source = resolver.by_binding.get(star.table.lower())
            if source is None:
                self._fail(
                    UnknownTableError(f"missing FROM-clause entry for table {star.table!r}")
                )
                return None
            targets = [source]
        elif resolver.sources:
            targets = resolver.sources
        else:
            self._fail(ExecutionError("SELECT * with no FROM clause"))
            return None
        if any(source.columns is None for source in targets):
            return None
        items = tuple(
            ast.SelectItem(ast.ColumnRef(col, table=source.binding), alias=col)
            for source in targets
            for col in source.columns
        )
        for item in items:
            self._bind_ref(item.expr, claim=False)  # the star claims the object
        self.stars[id(star)] = items
        return list(items)

    # --------------------------------------------------------- expressions

    def _bind_expr(self, expr: ast.Expr) -> None:
        """Bind the columns ``expr`` reads, claim its qualified stars, bind
        its subqueries (IN's after its operand), in tree order. A bare star
        here is ``COUNT(*)``'s, which reads no column."""
        kind = type(expr)
        if kind is ast.ColumnRef:
            self._bind_ref(expr)
        elif kind is ast.Star:
            if expr.table is not None:
                self._star_claims(expr)
        elif kind is ast.ExistsExpr or kind is ast.ScalarSubquery:
            self._bind_select(expr.subquery)
        else:
            for child in ast.children(expr):
                self._bind_expr(child)
            if kind is ast.InExpr and type(expr.candidates) is not list:
                self._bind_select(expr.candidates)

    def _bind_ref(self, ref: ast.ColumnRef, claim: bool = True) -> None:
        """Slot ``ref`` in the nearest block that binds it and attribute
        it to that source's object, or record why it binds nowhere."""
        name = ref.name.lower()
        qualifier = None if ref.table is None else ref.table.lower()
        maybe = False  # a source of unknown shape may have had the name
        for depth, resolver in enumerate(reversed(self.stack)):
            if qualifier is not None:
                source = resolver.by_binding.get(qualifier)
                if source is None:
                    continue  # the qualifier names a source further out
                if source.columns is None:
                    self._attribute(source, name, claim)
                    return
                key, names = f"{qualifier}.{name}", resolver.qualified
            else:
                for binding in resolver.unknown:
                    maybe = True
                    self._attribute(resolver.by_binding[binding.lower()], name, claim)
                key, names = name, resolver.unqualified
                if key not in names:
                    continue
                if resolver.unknown:  # bound here; which source holds it is unknown
                    self._attribute(resolver.by_binding[names[key][0].lower()], name, claim)
                    return
            if key in resolver.ambiguous:
                self._fail(UnknownColumnError(f"column reference {ref.name!r} is ambiguous"))
                for source in resolver.sources:  # each of them, as the name may
                    if qualifier in (None, source.binding.lower()) and any(
                        col.lower() == name for col in source.columns or ()
                    ):
                        self._attribute(source, name, claim)
            elif key not in names:
                self._fail(UnknownColumnError(f"column {ref} does not exist"))
            else:
                binding, column = names[key]
                self.slots[id(ref)] = (depth, binding, column)
                self._attribute(resolver.by_binding[binding.lower()], name, claim)
            return
        if not maybe:
            self._fail(UnknownColumnError(f"column {ref} does not exist"))

    def _attribute(self, source: _Source, name: str, claim: bool) -> None:
        if claim and source.obj is not None:
            self._access("SELECT", source.obj).columns.add(name)

    def _claim_item(self, item: ast.SelectItem) -> None:
        """An ORDER BY key naming a star's output column reads that column."""
        slot = self.slots.get(id(item.expr))
        if slot is None or type(item.expr) is not ast.ColumnRef:
            return
        depth, binding, _ = slot
        source = self.stack[-1 - depth].by_binding[binding.lower()]
        self._attribute(source, item.expr.name.lower(), True)

    def _star_claims(self, star: ast.Star) -> None:
        if star.table is not None:
            qualifier = star.table.lower()
            for resolver in reversed(self.stack):
                source = resolver.by_binding.get(qualifier)
                if source is not None:
                    if source.obj is not None:
                        self._access("SELECT", source.obj).whole_object = True
                    return
            self._fail(
                UnknownTableError(f"missing FROM-clause entry for table {star.table!r}")
            )
            return
        for source in self.stack[-1].sources:
            if source.obj is not None:
                self._access("SELECT", source.obj).whole_object = True
