"""Recursive-descent SQL parser for minidb, behind a text cache and a
template cache.

Entry points:

* :func:`parse` — one statement (trailing semicolons allowed). The text is
  looked up in a small bounded cache first. A tool call's SQL is parsed by
  the verifier and again, microseconds later, by ``Session.execute``: the
  second call is a hit. On a miss its *template* is looked up under the
  text's literal skeleton (:func:`lexer.skeleton`: the text with every
  NUMBER / STRING literal replaced by a marker of its kind, read with the
  literals' values in one regex pass). Agent SQL inlines its literals, so
  ``... WHERE id = 7`` and ``... WHERE id = 8`` share one; on a template
  hit the template's statement is rebuilt around the new literal values
  (only the nodes on the root-to-literal paths are new; untouched subtrees
  are shared, the nodes being frozen). Only a template miss runs the lexer
  and the recursive-descent parser. The key is the text itself, so
  spellings that differ in whitespace, keyword case or comments are
  separate templates, each parsed once. A new template is kept only if the
  lexer's NUMBER / STRING tokens are the skeleton's literals (kind, value
  and offset); a text where they are not is *untemplated*, parsed every
  time.
* :func:`shared_analysis` — ``analyze()``'s cache: at most one analysis
  per template and catalog version, shared by every statement bound from
  the template.
* :func:`prepared` — the template a statement was bound from and its
  *literal vector* (the values of its slots, in text order). The
  template's :attr:`_Template.shape` is its statement with each slot a
  :class:`ast.Param`, and :attr:`_Template.plan` the one prepared plan the
  executor keeps for it (:meth:`repro.minidb.executor.Executor._plan_select`):
  a plan built from the shape reads every literal from the vector an
  execution supplies.
* :func:`parse_script` — a ``;``-separated script into a list (not cached).
* :func:`parse_cache_stats` — the caches' own counters, for ``system.metrics``.

A ``LIMIT`` / ``OFFSET`` count is a slot like any literal (it binds as a
bare int; a text whose count is not an integer is parsed afresh, which
raises). A literal token the parser reads as structure — a ``VARCHAR(40)``
or ``CAST(... AS VARCHAR(n))`` length, an ORDER BY item that is a bare
literal (an ordinal is a column position) — is pinned, not slotted: a text
that differs there is not an instance of the template. Privileges are read
on every call (``Database.authorize``, asked by the verifier and again by
the session). A :class:`SQLSyntaxError` is raised afresh each time; nothing is
remembered for text that does not parse. Texts longer than
:data:`PARSE_CACHE_MAX_TEXT` skip every cache.

The parser tests keywords by comparing ``Token.word`` (the identifier
upper-cased once, by the lexer) with constant strings and frozensets, and
picks the statement and the postfix-predicate branch by dictionary / set
lookup instead of probing each alternative in turn. Nodes are built by
construction — clause values are collected first and the node is created
once — so nothing here assigns to a node after it exists.

The dialect covers the subset of SQL the BridgeScope toolkit and its
benchmarks exercise: SELECT with joins/aggregation/subqueries/set ops, the
three DML statements, core DDL, transaction control, and GRANT/REVOKE with
optional column lists.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, TypeVar

from . import ast_nodes as ast
from .errors import SQLSyntaxError
from .lexer import (
    EOF,
    IDENT,
    NUMBER,
    OP,
    PARAM,
    PUNCT,
    STRING,
    Token,
    literal_tokens,
    skeleton,
    tokenize,
)

#: entries in each of the parse caches (texts, templates, bound statements).
#: The text cache has to cover the calls in flight between verification and
#: execution across dispatcher workers plus the three transaction-control
#: texts; a SELECT's AST is ~6 kB, so each cache stays well under 1 MB where
#: a thousand entries would show in the process's peak RSS.
PARSE_CACHE_ENTRIES = 128
#: longer texts (bulk INSERT scripts) are parsed every time: with this and the
#: entry count the memory the caches can pin is bounded whatever callers send
PARSE_CACHE_MAX_TEXT = 4096

_JOIN_KINDS = frozenset({"INNER", "LEFT", "RIGHT", "CROSS", "FULL"})
_PRIVILEGE_ACTIONS = frozenset(
    {"SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER", "ALL"}
)
_SET_OPERATORS = frozenset({"UNION", "INTERSECT", "EXCEPT"})
#: words that end a select item / table reference, so are never its alias
_CLAUSE_WORDS = frozenset(
    {
        "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET",
        "UNION", "INTERSECT", "EXCEPT", "ON", "INNER", "LEFT", "RIGHT",
        "FULL", "CROSS", "JOIN", "AND", "OR", "AS", "SET", "WHEN", "THEN",
        "ELSE", "END", "ASC", "DESC",
    }
)  # fmt: skip
#: words that can continue a predicate after its left operand
_POSTFIX_WORDS = frozenset({"IS", "NOT", "IN", "BETWEEN", "LIKE", "ILIKE"})
_COMPARISON_OPS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})
_ARITHMETIC_PRECEDENCE = {"+": 1, "-": 1, "||": 1, "*": 2, "/": 2, "%": 2}
_SIGN_OPS = frozenset({"-", "+"})
_KEYWORD_LITERALS = {"NULL": None, "TRUE": True, "FALSE": False}
#: the token kinds whose values a template abstracts over
_LITERAL_KINDS = frozenset({NUMBER, STRING})

T = TypeVar("T")


def _literal_value(kind: str, text: str) -> int | float | str:
    """The value the :class:`ast.Literal` of a NUMBER or STRING literal
    holds, from its kind and its token value — for a fresh parse and a
    template binding alike."""
    if kind == STRING:
        return text
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def _count_value(kind: str, text: str) -> int | None:
    """A LIMIT / OFFSET count, or ``None`` when the literal is no integer
    (the parser raises for it). ``kind`` is NUMBER: the parser reads a
    count from no other literal."""
    try:
        return int(text)
    except ValueError:
        return None


class _Template:
    """One statement shape: every text with the same literal skeleton
    parses to this statement with other literals.

    ``stmt`` is the statement parsed from the first such text. The text's
    NUMBER / STRING literals are numbered in order (``arity`` of them);
    ``readers`` holds, for each slot — each :class:`ast.Literal` and each
    LIMIT / OFFSET count (``counts``, by slot number) — the number of the
    literal it holds, its kind and how to read its value, and ``steps`` the
    root-to-slot paths (see :func:`_rebuilt`). Every other literal was read
    as structure (a ``VARCHAR(40)`` length, an ORDER BY ordinal): ``pins``
    holds their numbers and values, and a text that differs there is not
    an instance. ``analysis`` is :func:`shared_analysis`'s one slot and
    ``plan`` the executor's prepared plan; each is one attribute, rebound
    whole, so a reader on another thread sees the old value or the new.
    """

    __slots__ = (
        "key", "stmt", "arity", "readers", "counts", "pins", "steps",
        "analysis", "plan", "_shape",
    )  # fmt: skip

    def __init__(
        self,
        key: str,
        stmt: ast.Statement,
        tokens: list[Token],
        literals: list[tuple[int, object]],
    ):
        #: the cache's own key object: refreshing the entry under it
        #: compares by identity, not character by character
        self.key = key
        self.stmt = stmt
        #: token position → literal number
        numbered: dict[int, int] = {}
        for position, token in enumerate(tokens):
            if token.kind in _LITERAL_KINDS:
                numbered[position] = len(numbered)
        self.arity = len(numbered)
        self.counts = frozenset(
            n for n, (_, leaf) in enumerate(literals) if type(leaf) is tuple
        )
        self.readers = tuple(
            (
                numbered[position],
                tokens[position].kind,
                _count_value if n in self.counts else _literal_value,
            )
            for n, (position, _) in enumerate(literals)
        )
        slotted = {position for position, _ in literals}
        self.pins = tuple(
            (n, tokens[position].value)
            for position, n in numbered.items()
            if position not in slotted
        )
        slot_of = {
            (id(leaf[0]), leaf[1]) if type(leaf) is tuple else id(leaf): n
            for n, (_, leaf) in enumerate(literals)
        }
        self.steps = _plan(stmt, slot_of)
        #: (catalog version, StatementAnalysis) of the last analysis
        self.analysis: tuple[object, object] | None = None
        #: the executor's prepared plan for this template, or None
        self.plan: object = None
        self._shape: ast.Statement | None = None

    def bind(self, texts: list[str]) -> tuple[ast.Statement, tuple] | None:
        """The statement a text with this skeleton and the literal values
        ``texts`` parses to, and its literal vector; ``None`` when the
        literal count or a pinned literal differs or a count is no integer."""
        if len(texts) != self.arity:
            return None
        for n, value in self.pins:
            if texts[n] != value:
                return None
        values = tuple([read(kind, texts[n]) for n, kind, read in self.readers])
        if self.counts and None in values:
            return None
        if self.steps is None:
            return self.stmt, values
        leaves: list = [ast.Literal(value) for value in values]
        for n in self.counts:
            leaves[n] = values[n]
        return _rebuilt(self.stmt, self.steps, leaves), values

    @property
    def shape(self) -> ast.Statement:
        """The statement with slot *n* an ``ast.Param(n)`` (a count's field
        holds the Param itself): what the executor plans and compiles once.
        Built on first use; two threads building it at once build equal
        ones, sharing every subtree without a slot."""
        shape = self._shape
        if shape is None:
            if self.steps is None:
                shape = self.stmt
            else:
                params = [ast.Param(n) for n in range(len(self.readers))]
                shape = _rebuilt(self.stmt, self.steps, params)
            self._shape = shape
        return shape


def _plan(node: object, slot_of: dict) -> object:
    """How to rebuild ``node`` around new slot values: the slot number of a
    slotted :class:`ast.Literal`, a tuple of ``(field name or index, plan)``
    steps for a node, list or tuple with one below it, else ``None``. A
    node's field the parser read a count into (``slot_of`` key ``(id(node),
    field)``) is a step straight to its slot number."""
    if type(node) is ast.Literal:
        return slot_of.get(id(node))
    if isinstance(node, (list, tuple)):
        parts = enumerate(node)
    elif hasattr(node, "__dataclass_fields__"):
        parts = vars(node).items()
    else:
        return None
    steps = []
    for key, part in parts:
        step = slot_of.get((id(node), key))
        if step is None:
            step = _plan(part, slot_of)
        if step is not None:
            steps.append((key, step))
    return tuple(steps) or None


def _rebuilt(node: object, steps: tuple, leaves: list) -> object:
    """A copy of ``node`` with the slot ``steps`` leads to holding
    ``leaves[slot]``. Only the nodes on those paths are new, each built
    once; every other subtree is shared with the template's statement
    (nodes are frozen). A node is copied before anyone else can see it."""
    kind = type(node)
    if kind is list or kind is tuple:
        parts = list(node)
        for index, step in steps:
            parts[index] = (
                leaves[step] if type(step) is int else _rebuilt(parts[index], step, leaves)
            )
        return parts if kind is list else tuple(parts)
    copy = object.__new__(kind)
    attrs = copy.__dict__
    attrs.update(node.__dict__)
    for name, step in steps:
        attrs[name] = (
            leaves[step] if type(step) is int else _rebuilt(attrs[name], step, leaves)
        )
    return copy


def _remember(entries: OrderedDict, key: object, value: object) -> None:
    """Insert into one of the cache's LRUs, dropping the oldest entry beyond
    :data:`PARSE_CACHE_ENTRIES`; the caller holds the lock."""
    entries[key] = value
    entries.move_to_end(key)
    if len(entries) > PARSE_CACHE_ENTRIES:
        entries.popitem(last=False)


_COUNTERS = (
    "hits", "misses", "template_hits", "template_misses", "untemplated",
    "analysis_hits", "analysis_misses", "plan_hits", "plan_misses", "plan_custom",
)  # fmt: skip

#: one bound statement: (statement, its template, its literal vector)
_Entry = tuple


class _ParseCache:
    """The three bounded, thread-safe LRUs behind :func:`parse`,
    :func:`shared_analysis` and :func:`prepared`: statement text → entry,
    literal skeleton → :class:`_Template`, and ``id(statement)`` → the entry
    it was bound in (the entry holds the statement, so its id cannot be
    reused while the entry lives). An entry is (statement, template,
    literal vector)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: least recently used first, in all three
        self._texts: OrderedDict[str, _Entry] = OrderedDict()  #: guarded by self._lock
        self._templates: OrderedDict[str, _Template] = OrderedDict()  #: guarded by self._lock
        self._bound: OrderedDict[int, _Entry] = OrderedDict()  #: guarded by self._lock
        self._counts = dict.fromkeys(_COUNTERS, 0)  #: guarded by self._lock

    def lookup(self, sql: str) -> ast.Statement | None:
        with self._lock:
            entry = self._texts.get(sql)
            if entry is None:
                self._counts["misses"] += 1
                return None
            self._counts["hits"] += 1
            self._texts.move_to_end(sql)
            # a text that keeps hitting (BEGIN) keeps its statement's link
            # to the template, so its analysis keeps being shared
            _remember(self._bound, id(entry[0]), entry)
            return entry[0]

    def template(self, key: str) -> _Template | None:
        with self._lock:
            template = self._templates.get(key)
            if template is not None:
                self._templates.move_to_end(template.key)
            return template

    def remember(self, sql: str, entry: _Entry, parsed: bool) -> None:
        """Keep ``sql`` → ``entry``, whose template was ``parsed`` just now
        on a template miss."""
        with self._lock:
            if parsed:
                self._counts["template_misses"] += 1
                template = entry[1]
                _remember(self._templates, template.key, template)
            else:
                self._counts["template_hits"] += 1
            _remember(self._texts, sql, entry)
            _remember(self._bound, id(entry[0]), entry)

    def entry_of(self, stmt: ast.Statement) -> _Entry | None:
        with self._lock:
            return self._bound.get(id(stmt))

    def count(self, counter: str) -> None:
        with self._lock:
            self._counts[counter] += 1

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                **self._counts,
                "entries": len(self._texts),
                "template_entries": len(self._templates),
            }


_cache = _ParseCache()


def parse(sql: str) -> ast.Statement:
    """Parse exactly one SQL statement. Raises :class:`SQLSyntaxError`.

    The returned statement is shared with every other caller that passes
    the same text, and shares subtrees with every statement of the same
    template; its nodes are frozen.
    """
    stmt = _cache.lookup(sql)
    if stmt is not None:
        return stmt
    if len(sql) > PARSE_CACHE_MAX_TEXT:
        return _Parser(sql).parse_one()
    key, texts = skeleton(sql)
    template = _cache.template(key)
    bound = None if template is None else template.bind(texts)
    parsed = bound is None
    if parsed:
        tokens = tokenize(sql)
        parser = _Parser(sql, tokens)
        stmt = parser.parse_one()
        if literal_tokens(sql) != [
            (token.kind, token.value, token.pos)
            for token in tokens
            if token.kind in _LITERAL_KINDS
        ]:
            # the skeleton would bind other texts wrongly: keep nothing
            _cache.count("untemplated")
            return stmt
        template = _Template(key, stmt, tokens, parser.literals)
        values = tuple(
            leaf.value if type(leaf) is ast.Literal else getattr(*leaf)
            for _, leaf in parser.literals
        )
    else:
        stmt, values = bound
    _cache.remember(sql, (stmt, template, values), parsed)
    return stmt


def shared_analysis(stmt: ast.Statement, version: object, compute: Callable[[], T]) -> T:
    """``compute()`` — the analysis of ``stmt`` under catalog ``version`` —
    at most once per template and version.

    Whatever ``compute`` returns must depend on the statement's shape and
    the catalog alone, never on a literal, and be immutable: every statement
    of the template gets it, on any thread. ``version`` is read before the
    analysis runs, so a schema change that lands during it gives the
    catalog a version this result is never stored under. A statement
    :func:`parse` did not bind (``parse_script``, an oversized text, one
    built by hand) is analysed every time.
    """
    entry = _cache.entry_of(stmt)
    template = None if entry is None else entry[1]
    if template is not None:
        memo = template.analysis
        if memo is not None and memo[0] == version:
            _cache.count("analysis_hits")
            return memo[1]
    result = compute()
    if template is not None:
        template.analysis = (version, result)
    _cache.count("analysis_misses")
    return result


def prepared(stmt: ast.Statement) -> "tuple[_Template, tuple] | None":
    """The template ``stmt`` was bound from and its literal vector, or
    ``None`` for a statement :func:`parse` did not bind (it is planned
    afresh on every execution)."""
    entry = _cache.entry_of(stmt)
    return None if entry is None else entry[1:]


def count_plan(outcome: str) -> None:
    """Count one prepared-plan lookup: ``hits`` (a cached plan served),
    ``misses`` (a plan built and kept) or ``custom`` (a plan whose choice
    read a literal, built for this execution only)."""
    _cache.count(f"plan_{outcome}")


def parse_cache_stats() -> dict[str, int]:
    """Counters and sizes of :func:`parse`'s caches (process-wide): text
    ``hits`` / ``misses`` / ``entries``, ``template_hits`` /
    ``template_misses`` / ``template_entries`` (lookups on a text miss),
    ``untemplated`` (texts parsed and not kept, their lexer and skeleton
    disagreeing), :func:`shared_analysis`'s ``analysis_hits`` / ``analysis_misses`` and
    the prepared plans' ``plan_hits`` / ``plan_misses`` / ``plan_custom``
    (:func:`count_plan`)."""
    return _cache.stats()


def parse_script(sql: str) -> list[ast.Statement]:
    """Parse a semicolon-separated script into a statement list."""
    parser = _Parser(sql)
    statements: list[ast.Statement] = []
    parser.skip_semicolons()
    while not parser.at_eof():
        statements.append(parser.parse_statement())
        parser.skip_semicolons()
    return statements


class _Parser:
    def __init__(self, source: str, tokens: list[Token] | None = None):
        if tokens is None:
            tokens = tokenize(source)
        # two more EOFs: a lookahead of two never runs off the end
        tokens = tokens + tokens[-1:] * 2
        self.tokens = tokens
        self.source = source
        self.pos = 0
        #: the current token, ``tokens[pos]``
        self.tok = tokens[0]
        #: (token position, slot) of each NUMBER / STRING value the
        #: statement holds: an ast.Literal node, or (SelectStatement, field)
        #: for a LIMIT / OFFSET count
        self.literals: list[tuple[int, object]] = []

    # ---------------------------------------------------------------- utils

    def advance(self) -> Token:
        token = self.tok
        if token.kind != EOF:
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return token

    def rewind(self, pos: int) -> None:
        self.pos = pos
        self.tok = self.tokens[pos]

    def at_eof(self) -> bool:
        return self.tok.kind == EOF

    def match_keyword(self, word: str) -> bool:
        """Consume the current token if it is the keyword ``word`` (upper case)."""
        if self.tok.word == word:
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.match_keyword(word):
            raise self.error(f"expected {word}")

    def at_punct(self, value: str) -> bool:
        token = self.tok
        return token.value == value and token.kind == PUNCT

    def match_punct(self, value: str) -> bool:
        token = self.tok
        if token.value == value and token.kind == PUNCT:
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> None:
        if not self.match_punct(value):
            raise self.error(f"expected {value!r}")

    def match_op(self, value: str) -> bool:
        token = self.tok
        if token.value == value and token.kind == OP:
            self.advance()
            return True
        return False

    def expect_identifier(self, what: str = "identifier") -> str:
        token = self.tok
        if token.kind != IDENT:
            raise self.error(f"expected {what}")
        self.advance()
        return token.value

    def skip_semicolons(self) -> None:
        while self.match_punct(";"):
            pass

    def expect_eof(self) -> None:
        if not self.at_eof():
            raise self.error("unexpected trailing input")

    def error(self, message: str) -> SQLSyntaxError:
        token = self.tok
        found = token.value or "<end of input>"
        return SQLSyntaxError(
            f"{message} near {found!r} (position {token.pos}) in: {self.source.strip()[:120]}"
        )

    # ----------------------------------------------------------- statements

    def parse_one(self) -> ast.Statement:
        """The one statement the text holds (trailing semicolons allowed)."""
        stmt = self.parse_statement()
        self.skip_semicolons()
        self.expect_eof()
        return stmt

    def parse_statement(self) -> ast.Statement:
        handler = self._statement_parsers.get(self.tok.word)
        if handler is None:
            raise self.error("expected a SQL statement")
        return handler(self)

    def parse_explain(self) -> ast.ExplainStatement:
        self.expect_keyword("EXPLAIN")
        analyze = self.match_keyword("ANALYZE")
        return ast.ExplainStatement(self.parse_select(), analyze=analyze)

    def parse_analyze(self) -> ast.AnalyzeStatement:
        self.expect_keyword("ANALYZE")
        table = None
        if self.tok.kind == IDENT:
            table = self.expect_identifier("table name")
        return ast.AnalyzeStatement(table)

    def parse_begin(self) -> ast.BeginStatement:
        if self.match_keyword("START"):
            self.expect_keyword("TRANSACTION")
        else:
            self.expect_keyword("BEGIN")
            self.match_keyword("TRANSACTION")
        return ast.BeginStatement()

    def parse_commit(self) -> ast.CommitStatement:
        self.expect_keyword("COMMIT")
        self.match_keyword("TRANSACTION")
        return ast.CommitStatement()

    def parse_rollback(self) -> ast.RollbackStatement:
        self.expect_keyword("ROLLBACK")
        self.match_keyword("TRANSACTION")
        if self.match_keyword("TO"):
            self.match_keyword("SAVEPOINT")
            return ast.RollbackStatement(savepoint=self.expect_identifier())
        return ast.RollbackStatement()

    def parse_savepoint(self) -> ast.SavepointStatement:
        self.expect_keyword("SAVEPOINT")
        return ast.SavepointStatement(self.expect_identifier())

    def parse_release(self) -> ast.ReleaseSavepointStatement:
        self.expect_keyword("RELEASE")
        self.match_keyword("SAVEPOINT")
        return ast.ReleaseSavepointStatement(self.expect_identifier())

    # -------------------------------------------------------------- SELECT

    def parse_select(self) -> ast.SelectStatement:
        block, (order_by, limit, offset) = self.parse_select_parts()
        stmt = ast.SelectStatement(
            **block,
            order_by=order_by,
            limit=None if limit is None else limit[0],
            offset=None if offset is None else offset[0],
        )
        # the counts are slots of this node's fields
        for name, count in (("limit", limit), ("offset", offset)):
            if count is not None:
                position = self.literals[count[1]][0]
                self.literals[count[1]] = (position, (stmt, name))
        return stmt

    def parse_select_parts(
        self,
    ) -> tuple[dict, tuple[list[ast.OrderItem], tuple | None, tuple | None]]:
        """One SELECT as (the block's fields, its ORDER BY / LIMIT / OFFSET);
        a count is ``(value, index of its entry in self.literals)``.

        ORDER BY / LIMIT written after the last arm of a set operation bind
        to the whole operation (standard SQL), so the right-hand arm is
        built without them and they travel up to the outermost statement.
        """
        self.expect_keyword("SELECT")
        distinct = self.match_keyword("DISTINCT")
        if not distinct:
            self.match_keyword("ALL")

        items = [self.parse_select_item()]
        while self.match_punct(","):
            items.append(self.parse_select_item())

        from_sources: list[ast.TableRef | ast.SubqueryRef] = []
        joins: list[ast.Join] = []
        if self.match_keyword("FROM"):
            from_sources.append(self.parse_table_source())
            while True:
                if self.match_punct(","):
                    from_sources.append(self.parse_table_source())
                    continue
                join = self.try_parse_join()
                if join is None:
                    break
                joins.append(join)

        where = self.parse_expression() if self.match_keyword("WHERE") else None

        group_by: list[ast.Expr] = []
        if self.match_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expression())
            while self.match_punct(","):
                group_by.append(self.parse_expression())

        having = self.parse_expression() if self.match_keyword("HAVING") else None

        block = {
            "items": items,
            "from_sources": from_sources,
            "joins": joins,
            "where": where,
            "group_by": group_by,
            "having": having,
            "distinct": distinct,
        }

        set_kind = self.tok.word
        if set_kind in _SET_OPERATORS:
            self.advance()
            if set_kind == "UNION" and self.match_keyword("ALL"):
                set_kind = "UNION ALL"
            rhs_block, tail = self.parse_select_parts()
            block["set_op"] = (set_kind, ast.SelectStatement(**rhs_block))
            return block, tail

        order_by: list[ast.OrderItem] = []
        if self.match_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.match_punct(","):
                order_by.append(self.parse_order_item())

        limit = offset = None
        if self.match_keyword("LIMIT"):
            limit = self.parse_nonnegative_int("LIMIT")
        if self.match_keyword("OFFSET"):
            offset = self.parse_nonnegative_int("OFFSET")

        return block, (order_by, limit, offset)

    def parse_nonnegative_int(self, clause: str) -> tuple[int, int]:
        """A LIMIT / OFFSET count: its value, and the index of the entry
        it was given in ``self.literals`` (the statement it belongs to is
        filled in by :meth:`parse_select`)."""
        token = self.tok
        if token.kind != NUMBER:
            raise self.error(f"expected integer after {clause}")
        position = self.pos
        self.advance()
        try:
            value = int(token.value)
        except ValueError:
            raise self.error(f"{clause} requires an integer") from None
        if value < 0:
            raise self.error(f"{clause} must be non-negative")
        self.literals.append((position, None))
        return value, len(self.literals) - 1

    def parse_select_item(self) -> ast.SelectItem:
        token = self.tok
        # bare * or table.*
        if token.value == "*" and token.kind == OP:
            self.advance()
            return ast.SelectItem(ast.Star())
        if token.kind == IDENT:
            dot, star = self.tokens[self.pos + 1 : self.pos + 3]
            if (
                dot.value == "."
                and dot.kind == PUNCT
                and star.value == "*"
                and star.kind == OP
            ):
                self.rewind(self.pos + 3)
                return ast.SelectItem(ast.Star(table=token.value))
        return ast.SelectItem(self.parse_expression(), self.parse_alias())

    def parse_alias(self) -> str | None:
        """``AS name``, or a bare name that is not the next clause's keyword."""
        if self.match_keyword("AS"):
            return self.expect_identifier("alias")
        token = self.tok
        if token.kind == IDENT and token.word not in _CLAUSE_WORDS:
            self.advance()
            return token.value
        return None

    def parse_table_source(self) -> ast.TableRef | ast.SubqueryRef:
        if self.match_punct("("):
            subquery = self.parse_select()
            self.expect_punct(")")
            self.match_keyword("AS")
            alias = self.expect_identifier("subquery alias")
            return ast.SubqueryRef(subquery, alias)
        name = self.expect_identifier("table name")
        if self.match_punct("."):
            # dotted relations name the observability system views
            # (system.statements etc.); user tables cannot contain a dot
            # unless quoted, in which case the lexer already produced a
            # single IDENT token and no '.' punct follows
            name = f"{name}.{self.expect_identifier('table name')}"
        return ast.TableRef(name, self.parse_alias())

    def try_parse_join(self) -> ast.Join | None:
        kind = self.tok.word
        if kind == "JOIN":
            self.advance()
            kind = "INNER"
        elif kind in _JOIN_KINDS:
            self.advance()
            self.match_keyword("OUTER")
            self.expect_keyword("JOIN")
            if kind == "FULL":
                raise self.error("FULL OUTER JOIN is not supported")
        else:
            return None
        source = self.parse_table_source()
        condition = None
        if kind != "CROSS":
            self.expect_keyword("ON")
            condition = self.parse_expression()
        return ast.Join(kind, source, condition)

    def parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expression()
        if self.literals and self.literals[-1][1] is expr:
            # a bare literal is an ordinal (or a constant key): structure
            self.literals.pop()
        word = self.tok.word
        descending = word == "DESC"
        if descending or word == "ASC":
            self.advance()
        return ast.OrderItem(expr, descending)

    # ----------------------------------------------------------------- DML

    def parse_insert(self) -> ast.InsertStatement:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_identifier("table name")
        columns: list[str] | None = None
        if self.match_punct("("):
            columns = [self.expect_identifier("column name")]
            while self.match_punct(","):
                columns.append(self.expect_identifier("column name"))
            self.expect_punct(")")
        if self.tok.word == "SELECT":
            return ast.InsertStatement(table, columns, rows=None, select=self.parse_select())
        self.expect_keyword("VALUES")
        rows = [self.parse_value_row()]
        while self.match_punct(","):
            rows.append(self.parse_value_row())
        return ast.InsertStatement(table, columns, rows=rows)

    def parse_value_row(self) -> list[ast.Expr]:
        self.expect_punct("(")
        row = [self.parse_expression()]
        while self.match_punct(","):
            row.append(self.parse_expression())
        self.expect_punct(")")
        return row

    def parse_update(self) -> ast.UpdateStatement:
        self.expect_keyword("UPDATE")
        table = self.expect_identifier("table name")
        self.expect_keyword("SET")
        assignments = [self.parse_assignment()]
        while self.match_punct(","):
            assignments.append(self.parse_assignment())
        where = self.parse_expression() if self.match_keyword("WHERE") else None
        return ast.UpdateStatement(table, assignments, where)

    def parse_assignment(self) -> tuple[str, ast.Expr]:
        column = self.expect_identifier("column name")
        if not self.match_op("="):
            raise self.error("expected '=' in SET clause")
        return column, self.parse_expression()

    def parse_delete(self) -> ast.DeleteStatement:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_identifier("table name")
        where = self.parse_expression() if self.match_keyword("WHERE") else None
        return ast.DeleteStatement(table, where)

    # ----------------------------------------------------------------- DDL

    def parse_create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        if self.match_keyword("TABLE"):
            return self.parse_create_table()
        if self.match_keyword("UNIQUE"):
            self.expect_keyword("INDEX")
            return self.parse_create_index(unique=True)
        if self.match_keyword("INDEX"):
            return self.parse_create_index(unique=False)
        or_replace = False
        if self.match_keyword("OR"):
            self.expect_keyword("REPLACE")
            or_replace = True
        if self.match_keyword("VIEW"):
            name = self.expect_identifier("view name")
            self.expect_keyword("AS")
            return ast.CreateViewStatement(name, self.parse_select(), or_replace)
        raise self.error("expected TABLE, INDEX, or VIEW after CREATE")

    def parse_create_table(self) -> ast.CreateTableStatement:
        if_not_exists = self._match_if_not_exists()
        table = self.expect_identifier("table name")
        self.expect_punct("(")
        columns: list[ast.ColumnDef] = []
        primary_key: list[str] = []
        foreign_keys: list[ast.ForeignKeyDef] = []
        uniques: list[list[str]] = []
        checks: list[ast.Expr] = []
        while True:
            word = self.tok.word
            if word == "PRIMARY":
                self.advance()
                self.expect_keyword("KEY")
                primary_key = self.parse_paren_name_list()
            elif word == "FOREIGN":
                self.advance()
                self.expect_keyword("KEY")
                fk_columns = self.parse_paren_name_list()
                self.expect_keyword("REFERENCES")
                ref_table = self.expect_identifier("referenced table")
                ref_columns = self.parse_paren_name_list() if self.at_punct("(") else []
                foreign_keys.append(ast.ForeignKeyDef(fk_columns, ref_table, ref_columns))
            elif word == "UNIQUE" and self.tokens[self.pos + 1].value == "(":
                self.advance()
                uniques.append(self.parse_paren_name_list())
            elif word == "CHECK" and self.tokens[self.pos + 1].value == "(":
                self.advance()
                self.expect_punct("(")
                checks.append(self.parse_expression())
                self.expect_punct(")")
            else:
                columns.append(self.parse_column_def())
            if not self.match_punct(","):
                break
        self.expect_punct(")")
        return ast.CreateTableStatement(
            table, columns, primary_key, foreign_keys, uniques, checks, if_not_exists
        )

    def _match_if_not_exists(self) -> bool:
        if self.match_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            return True
        return False

    def _match_if_exists(self) -> bool:
        if self.match_keyword("IF"):
            self.expect_keyword("EXISTS")
            return True
        return False

    def parse_paren_name_list(self) -> list[str]:
        self.expect_punct("(")
        names = [self.expect_identifier("name")]
        while self.match_punct(","):
            names.append(self.expect_identifier("name"))
        self.expect_punct(")")
        return names

    def parse_column_def(self) -> ast.ColumnDef:
        name = self.expect_identifier("column name")
        declared = self.expect_identifier("column type")
        # optional length: VARCHAR(40) / NUMERIC(10,2)
        if self.match_punct("("):
            length_parts = [self.advance().value]
            while self.match_punct(","):
                length_parts.append(self.advance().value)
            self.expect_punct(")")
            declared = f"{declared}({','.join(length_parts)})"
        not_null = primary_key = unique = False
        default = check = references = None
        while True:
            word = self.tok.word
            if word == "PRIMARY":
                self.advance()
                self.expect_keyword("KEY")
                primary_key = True
            elif word == "NOT":
                self.advance()
                self.expect_keyword("NULL")
                not_null = True
            elif word == "NULL":
                self.advance()
            elif word == "UNIQUE":
                self.advance()
                unique = True
            elif word == "DEFAULT":
                self.advance()
                default = self.parse_primary()
            elif word == "CHECK":
                self.advance()
                self.expect_punct("(")
                check = self.parse_expression()
                self.expect_punct(")")
            elif word == "REFERENCES":
                self.advance()
                ref_table = self.expect_identifier("referenced table")
                ref_column = ""
                if self.match_punct("("):
                    ref_column = self.expect_identifier("referenced column")
                    self.expect_punct(")")
                references = (ref_table, ref_column)
            else:
                break
        return ast.ColumnDef(
            name, declared, not_null, primary_key, unique, default, check, references
        )

    def parse_create_index(self, unique: bool) -> ast.CreateIndexStatement:
        if_not_exists = self._match_if_not_exists()
        name = self.expect_identifier("index name")
        self.expect_keyword("ON")
        table = self.expect_identifier("table name")
        using = None
        if self.match_keyword("USING"):
            method = self.expect_identifier("index method").upper()
            if method not in ("BTREE", "HASH"):
                raise self.error(f"unknown index method {method!r}")
            using = method
        columns = self.parse_paren_name_list()
        return ast.CreateIndexStatement(
            name, table, columns, unique, if_not_exists, using
        )

    def parse_drop(self) -> ast.Statement:
        self.expect_keyword("DROP")
        if self.match_keyword("TABLE"):
            if_exists = self._match_if_exists()
            tables = [self.expect_identifier("table name")]
            while self.match_punct(","):
                tables.append(self.expect_identifier("table name"))
            cascade = self.match_keyword("CASCADE")
            self.match_keyword("RESTRICT")
            return ast.DropTableStatement(tables, if_exists, cascade)
        if self.match_keyword("INDEX"):
            if_exists = self._match_if_exists()
            return ast.DropIndexStatement(self.expect_identifier("index name"), if_exists)
        if self.match_keyword("VIEW"):
            if_exists = self._match_if_exists()
            names = [self.expect_identifier("view name")]
            while self.match_punct(","):
                names.append(self.expect_identifier("view name"))
            return ast.DropViewStatement(names, if_exists)
        if self.match_keyword("DATABASE"):
            # deliberately parsed so the security layer can reject it by rule
            name = self.expect_identifier("database name")
            return ast.DropTableStatement([name], if_exists=False, cascade=True)
        raise self.error("expected TABLE, INDEX, VIEW, or DATABASE after DROP")

    def parse_alter(self) -> ast.AlterTableStatement:
        self.expect_keyword("ALTER")
        self.expect_keyword("TABLE")
        table = self.expect_identifier("table name")
        if self.match_keyword("ADD"):
            self.match_keyword("COLUMN")
            return ast.AlterTableStatement(
                table, "ADD_COLUMN", column=self.parse_column_def()
            )
        if self.match_keyword("DROP"):
            self.match_keyword("COLUMN")
            return ast.AlterTableStatement(
                table, "DROP_COLUMN", old_name=self.expect_identifier("column name")
            )
        if self.match_keyword("RENAME"):
            if self.match_keyword("TO"):
                return ast.AlterTableStatement(
                    table, "RENAME_TABLE", new_name=self.expect_identifier("new name")
                )
            self.match_keyword("COLUMN")
            old = self.expect_identifier("column name")
            self.expect_keyword("TO")
            new = self.expect_identifier("new column name")
            return ast.AlterTableStatement(
                table, "RENAME_COLUMN", old_name=old, new_name=new
            )
        raise self.error("expected ADD, DROP, or RENAME after ALTER TABLE")

    # -------------------------------------------------------- GRANT/REVOKE

    def parse_grant(self) -> ast.GrantStatement:
        self.expect_keyword("GRANT")
        return ast.GrantStatement(*self.parse_privilege_clauses("TO"))

    def parse_revoke(self) -> ast.RevokeStatement:
        self.expect_keyword("REVOKE")
        return ast.RevokeStatement(*self.parse_privilege_clauses("FROM"))

    def parse_privilege_clauses(
        self, grantee_keyword: str
    ) -> tuple[list[str], list[str] | None, list[str], str]:
        """``actions [(columns)] ON [TABLE] objects TO|FROM grantee``."""
        actions: list[str] = []
        columns: list[str] | None = None
        while True:
            action = self.expect_identifier("privilege action").upper()
            if action not in _PRIVILEGE_ACTIONS:
                raise self.error(f"unknown privilege action {action!r}")
            actions.append(action)
            if action == "ALL":
                self.match_keyword("PRIVILEGES")
            if self.at_punct("("):
                columns = self.parse_paren_name_list()
            if not self.match_punct(","):
                break
        self.expect_keyword("ON")
        self.match_keyword("TABLE")
        objects = [self._grant_object()]
        while self.match_punct(","):
            objects.append(self._grant_object())
        self.expect_keyword(grantee_keyword)
        return actions, columns, objects, self.expect_identifier("grantee")

    def _grant_object(self) -> str:
        """An object name in GRANT/REVOKE; ``*`` means database-wide."""
        if self.match_op("*"):
            return "*"
        return self.expect_identifier("object name")

    _statement_parsers = {
        "SELECT": parse_select,
        "INSERT": parse_insert,
        "UPDATE": parse_update,
        "DELETE": parse_delete,
        "BEGIN": parse_begin,
        "START": parse_begin,
        "COMMIT": parse_commit,
        "ROLLBACK": parse_rollback,
        "SAVEPOINT": parse_savepoint,
        "RELEASE": parse_release,
        "EXPLAIN": parse_explain,
        "ANALYZE": parse_analyze,
        "CREATE": parse_create,
        "DROP": parse_drop,
        "ALTER": parse_alter,
        "GRANT": parse_grant,
        "REVOKE": parse_revoke,
    }

    # ---------------------------------------------------------- expressions

    def parse_or(self) -> ast.Expr:
        left = self.parse_and()
        while self.tok.word == "OR":
            self.advance()
            left = ast.BinaryOp("OR", left, self.parse_and())
        return left

    parse_expression = parse_or

    def parse_and(self) -> ast.Expr:
        left = self.parse_not()
        while self.tok.word == "AND":
            self.advance()
            left = ast.BinaryOp("AND", left, self.parse_not())
        return left

    def parse_not(self) -> ast.Expr:
        if self.tok.word == "NOT":
            self.advance()
            return ast.UnaryOp("NOT", self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> ast.Expr:
        if self.match_keyword("EXISTS"):
            self.expect_punct("(")
            subquery = self.parse_select()
            self.expect_punct(")")
            return ast.ExistsExpr(subquery)
        left = self.parse_comparison()
        # postfix predicates: IS [NOT] NULL, [NOT] IN/BETWEEN/LIKE
        while True:
            word = self.tok.word
            if word not in _POSTFIX_WORDS:
                return left
            start = self.pos
            self.advance()
            if word == "IS":
                negated = self.match_keyword("NOT")
                self.expect_keyword("NULL")
                left = ast.IsNullExpr(left, negated)
                continue
            negated = word == "NOT"
            if negated:
                word = self.advance().word
            if word == "IN":
                left = self.parse_in_tail(left, negated)
            elif word == "BETWEEN":
                low = self.parse_comparison()
                self.expect_keyword("AND")
                high = self.parse_comparison()
                left = ast.BetweenExpr(left, low, high, negated)
            elif word == "LIKE":
                left = ast.LikeExpr(left, self.parse_comparison(), negated)
            elif word == "ILIKE":
                left = ast.LikeExpr(
                    left, self.parse_comparison(), negated, case_insensitive=True
                )
            else:
                self.rewind(start)  # NOT belonged to an enclosing parse_not
                return left

    def parse_in_tail(self, operand: ast.Expr, negated: bool) -> ast.InExpr:
        self.expect_punct("(")
        if self.tok.word == "SELECT":
            subquery = self.parse_select()
            self.expect_punct(")")
            return ast.InExpr(operand, subquery, negated)
        candidates = [self.parse_expression()]
        while self.match_punct(","):
            candidates.append(self.parse_expression())
        self.expect_punct(")")
        return ast.InExpr(operand, candidates, negated)

    def parse_comparison(self) -> ast.Expr:
        left = self.parse_arithmetic(1)
        token = self.tok
        if token.kind == OP and token.value in _COMPARISON_OPS:
            self.advance()
            op = "<>" if token.value == "!=" else token.value
            return ast.BinaryOp(op, left, self.parse_arithmetic(1))
        return left

    def parse_arithmetic(self, min_precedence: int) -> ast.Expr:
        """Left-associative ``+ - ||`` (1) under ``* / %`` (2) under a sign.

        One loop instead of a method per level: the usual operand, followed
        by no arithmetic operator at all, costs one call where three levels
        cost three.
        """
        token = self.tok
        if token.kind == OP and token.value in _SIGN_OPS:
            self.advance()
            left: ast.Expr = ast.UnaryOp(token.value, self.parse_arithmetic(3))
        else:
            left = self.parse_primary()
        while True:
            token = self.tok
            if token.kind != OP:
                return left
            precedence = _ARITHMETIC_PRECEDENCE.get(token.value, 0)
            if precedence < min_precedence:
                return left
            self.advance()
            left = ast.BinaryOp(token.value, left, self.parse_arithmetic(precedence + 1))

    def parse_primary(self) -> ast.Expr:
        token = self.tok
        kind = token.kind
        node: ast.Expr
        if kind == IDENT:
            word = token.word
            if word in _KEYWORD_LITERALS:
                node = ast.Literal(_KEYWORD_LITERALS[word])
            elif word == "CASE":
                return self.parse_case()
            elif word == "CAST":
                return self.parse_cast()
            elif word == "NOT":
                self.advance()
                return ast.UnaryOp("NOT", self.parse_not())
            else:
                following = self.tokens[self.pos + 1]
                if following.kind == PUNCT:
                    if following.value == "(":
                        return self.parse_function_call()
                    if following.value == ".":
                        self.rewind(self.pos + 2)
                        return ast.ColumnRef(
                            self.expect_identifier("column name"), table=token.value
                        )
                node = ast.ColumnRef(token.value)
        elif kind in _LITERAL_KINDS:
            node = ast.Literal(_literal_value(kind, token.value))
            self.literals.append((self.pos, node))
        elif kind == PUNCT and token.value == "(":
            self.advance()
            if self.tok.word == "SELECT":
                subquery = self.parse_select()
                self.expect_punct(")")
                return ast.ScalarSubquery(subquery)
            expr = self.parse_expression()
            self.expect_punct(")")
            return expr
        elif kind == PARAM:
            raise self.error("positional parameters are not supported")
        else:
            raise self.error("expected an expression")
        self.advance()  # the one-token operands
        return node

    def parse_case(self) -> ast.CaseExpr:
        self.expect_keyword("CASE")
        operand = None
        if self.tok.word != "WHEN":
            operand = self.parse_expression()
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self.match_keyword("WHEN"):
            condition = self.parse_expression()
            self.expect_keyword("THEN")
            whens.append((condition, self.parse_expression()))
        if not whens:
            raise self.error("CASE requires at least one WHEN branch")
        default = self.parse_expression() if self.match_keyword("ELSE") else None
        self.expect_keyword("END")
        return ast.CaseExpr(operand, whens, default)

    def parse_cast(self) -> ast.CastExpr:
        self.expect_keyword("CAST")
        self.expect_punct("(")
        operand = self.parse_expression()
        self.expect_keyword("AS")
        target = self.expect_identifier("type name")
        if self.match_punct("("):
            length = self.advance().value
            self.expect_punct(")")
            target = f"{target}({length})"
        self.expect_punct(")")
        return ast.CastExpr(operand, target)

    def parse_function_call(self) -> ast.FunctionCall:
        name = self.advance().word
        self.expect_punct("(")
        distinct = self.match_keyword("DISTINCT")
        args: list[ast.Expr] = []
        if not self.at_punct(")"):
            if self.match_op("*"):
                args.append(ast.Star())
            else:
                args.append(self.parse_expression())
                while self.match_punct(","):
                    args.append(self.parse_expression())
        self.expect_punct(")")
        return ast.FunctionCall(name, args, distinct)
