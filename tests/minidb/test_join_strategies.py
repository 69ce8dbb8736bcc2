"""Tests for hash-join execution, join planning, and predicate pushdown.

Every query here is checked against the nested-loop plan of the same
statement with its column = column equalities spelled ``NOT (x <> y)``
(which the planner does not harvest as join keys), so hash joins are
proven drop-in equivalent to the seed executor's only strategy.
"""

import functools
import gc
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.minidb import Database, parse
from repro.minidb import ast_nodes as ast
from repro.minidb.analysis import analyze
from repro.minidb.errors import MiniDBError
from repro.minidb.executor import Executor
from repro.minidb.functions import SCALAR_FUNCTIONS
from repro.minidb.planner import plan_join, plan_select, pushdown_filter


@pytest.fixture
def s():
    db = Database(owner="a")
    session = db.connect("a")
    session.execute("CREATE TABLE dept (id INT PRIMARY KEY, name TEXT, region TEXT)")
    session.execute(
        "CREATE TABLE emp (id INT PRIMARY KEY, dept_id INT, name TEXT, salary INT)"
    )
    session.execute(
        "INSERT INTO dept VALUES (1,'eng','west'),(2,'ops','east'),(3,'lab','west')"
    )
    session.execute(
        "INSERT INTO emp VALUES "
        "(1,1,'ann',100),(2,1,'bob',90),(3,2,'cal',80),(4,NULL,'dot',70),(5,9,'eve',60)"
    )
    return session


#: a column = column equality (qualified or not; literals never match)
_EQUALITY = re.compile(r"\b([a-z_][\w.]*) = ([a-z_][\w.]*)")


AB_TABLES = "CREATE TABLE a (x INT, z INT); CREATE TABLE b (y INT, w INT)"


def catalog_of(script):
    db = Database(owner="a")
    db.connect("a").execute_script(script)
    return db.catalog


def bound(sql, script):
    """``sql``'s WHERE and the slots binding it gave, under the tables
    ``script`` creates (``None``: no catalog)."""
    stmt = parse(sql)
    catalog = None if script is None else catalog_of(script)
    return stmt.where, analyze(stmt, catalog).binding.slots


def without_equi_keys(sql):
    """``sql`` with each column = column equality spelled ``NOT (x <> y)``:
    the same truth value on every input (NULL included), but not an
    equi-key, so the planner joins by nested loop."""
    return _EQUALITY.sub(r"NOT (\1 <> \2)", sql)


def both_strategies(session, sql):
    """Run ``sql`` as planned and with its equi-keys hidden from the
    planner (the nested-loop reference); assert equal rows."""
    hashed = session.execute(sql).rows
    reference = without_equi_keys(sql)
    plan = "\n".join(line for (line,) in session.execute("EXPLAIN " + reference).rows)
    assert "Hash Join" not in plan, reference
    looped = session.execute(reference).rows
    assert sorted(hashed, key=repr) == sorted(looped, key=repr)
    return hashed


class TestHashJoinEquivalence:
    def test_inner_join(self, s):
        rows = both_strategies(
            s, "SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept_id = d.id"
        )
        assert sorted(rows) == [("ann", "eng"), ("bob", "eng"), ("cal", "ops")]

    def test_inner_join_uses_hash_strategy(self, s):
        before = s.db.planner_stats["hash_joins"]
        s.execute("SELECT * FROM emp e JOIN dept d ON e.dept_id = d.id")
        assert s.db.planner_stats["hash_joins"] == before + 1

    def test_left_join_null_extension(self, s):
        rows = both_strategies(
            s,
            "SELECT d.name, e.name FROM dept d LEFT JOIN emp e "
            "ON e.dept_id = d.id ORDER BY d.id, e.id",
        )
        assert rows == [
            ("eng", "ann"),
            ("eng", "bob"),
            ("ops", "cal"),
            ("lab", None),
        ]

    def test_right_join_null_extension(self, s):
        rows = both_strategies(
            s,
            "SELECT e.name, d.name FROM emp e RIGHT JOIN dept d "
            "ON e.dept_id = d.id ORDER BY d.id",
        )
        assert ("ann", "eng") in rows
        assert (None, "lab") in rows

    def test_right_join_with_empty_left_relation(self, s):
        s.execute("CREATE TABLE nobody (id INT PRIMARY KEY, dept_id INT)")
        rows = both_strategies(
            s,
            "SELECT n.id, d.name FROM nobody n RIGHT JOIN dept d "
            "ON n.dept_id = d.id ORDER BY d.id",
        )
        assert rows == [(None, "eng"), (None, "ops"), (None, "lab")]

    def test_null_keys_never_match(self, s):
        # dot has dept_id NULL: excluded from INNER, NULL-extended in LEFT
        inner = both_strategies(
            s, "SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.id"
        )
        assert ("dot",) not in inner
        left = both_strategies(
            s,
            "SELECT e.name, d.name FROM emp e LEFT JOIN dept d ON e.dept_id = d.id",
        )
        assert ("dot", None) in left

    @pytest.mark.parametrize("kind", ["INNER", "LEFT"])
    @pytest.mark.parametrize("column", ["k", "t", "f"])
    def test_null_and_cross_type_keys(self, s, kind, column):
        # NULL keys on both sides; INT against TEXT and against REAL keys
        s.execute("CREATE TABLE l (id INT PRIMARY KEY, k INT)")
        s.execute("CREATE TABLE r (id INT PRIMARY KEY, k INT, t TEXT, f REAL)")
        s.execute("INSERT INTO l VALUES (1, 1), (2, NULL), (3, 2), (4, NULL), (5, 3)")
        s.execute(
            "INSERT INTO r VALUES (10, NULL, '1', 1.0), (11, 1, NULL, NULL), "
            "(12, 2, '2', 2.5), (13, NULL, 'x', 3.0)"
        )
        sql = f"SELECT l.id, r.id FROM l {kind} JOIN r ON l.k = r.{column}"
        assert "Hash Join" in s.execute("EXPLAIN " + sql).rows[-1][0]
        both_strategies(s, sql)

    def test_mixed_condition_hash_with_residual(self, s):
        before = s.db.planner_stats["hash_joins"]
        rows = both_strategies(
            s,
            "SELECT d.name, e.name FROM dept d LEFT JOIN emp e "
            "ON e.dept_id = d.id AND e.salary > 95 ORDER BY d.id",
        )
        assert rows == [("eng", "ann"), ("ops", None), ("lab", None)]
        assert s.db.planner_stats["hash_joins"] > before

    def test_non_equi_condition_falls_back_to_nested_loop(self, s):
        before = dict(s.db.planner_stats)
        rows = s.execute(
            "SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept_id < d.id"
        ).rows
        assert s.db.planner_stats["nested_loop_joins"] == before["nested_loop_joins"] + 1
        assert s.db.planner_stats["hash_joins"] == before["hash_joins"]
        assert ("ann", "ops") in rows and ("cal", "lab") in rows

    def test_implicit_join_hashes_on_where_equality(self, s):
        before = s.db.planner_stats["hash_joins"]
        rows = both_strategies(
            s,
            "SELECT e.name, d.name FROM emp e, dept d WHERE e.dept_id = d.id",
        )
        assert sorted(rows) == [("ann", "eng"), ("bob", "eng"), ("cal", "ops")]
        assert s.db.planner_stats["hash_joins"] == before + 1

    def test_cross_join_still_cross(self, s):
        before = dict(s.db.planner_stats)
        assert len(s.execute("SELECT * FROM dept CROSS JOIN dept d2").rows) == 9
        assert s.db.planner_stats["hash_joins"] == before["hash_joins"]
        assert s.db.planner_stats["nested_loop_joins"] == before["nested_loop_joins"]

    def test_self_join(self, s):
        rows = both_strategies(
            s,
            "SELECT a.name, b.name FROM emp a JOIN emp b "
            "ON a.dept_id = b.dept_id AND a.id < b.id",
        )
        assert rows == [("ann", "bob")]

    def test_subquery_source_hash_join(self, s):
        rows = both_strategies(
            s,
            "SELECT d.name, t.n FROM dept d "
            "JOIN (SELECT dept_id, COUNT(*) AS n FROM emp GROUP BY dept_id) t "
            "ON t.dept_id = d.id ORDER BY d.id",
        )
        assert rows == [("eng", 2), ("ops", 1)]

    def test_view_source_join(self, s):
        s.execute("CREATE VIEW west_depts AS SELECT * FROM dept WHERE region = 'west'")
        rows = both_strategies(
            s,
            "SELECT e.name FROM emp e JOIN west_depts w ON e.dept_id = w.id "
            "ORDER BY e.id",
        )
        assert rows == [("ann",), ("bob",)]

    def test_join_then_group_by(self, s):
        rows = both_strategies(
            s,
            "SELECT d.name, COUNT(e.id) FROM dept d LEFT JOIN emp e "
            "ON e.dept_id = d.id GROUP BY d.name ORDER BY d.name",
        )
        assert rows == [("eng", 2), ("lab", 0), ("ops", 1)]


class TestWherePushdown:
    def test_left_join_pushdown_on_nullable_side(self, s):
        # WHERE equality on the NULL-extended side must still drop
        # NULL-extended rows, exactly as without pushdown
        rows = both_strategies(
            s,
            "SELECT d.name, e.name FROM dept d LEFT JOIN emp e "
            "ON e.dept_id = d.id WHERE e.salary = 90",
        )
        assert rows == [("eng", "bob")]

    def test_left_join_pushdown_on_preserved_side(self, s):
        rows = both_strategies(
            s,
            "SELECT d.name, e.name FROM dept d LEFT JOIN emp e "
            "ON e.dept_id = d.id WHERE d.region = 'west' ORDER BY d.id, e.id",
        )
        assert rows == [("eng", "ann"), ("eng", "bob"), ("lab", None)]

    def test_is_null_predicate_not_pushed(self, s):
        # IS NULL is not null-rejecting: the NULL-extended rows must survive
        rows = both_strategies(
            s,
            "SELECT d.name FROM dept d LEFT JOIN emp e ON e.dept_id = d.id "
            "WHERE e.id IS NULL",
        )
        assert rows == [("lab",)]

    def test_pushdown_filter_extraction(self):
        where, slots = bound(
            "SELECT * FROM t, u WHERE a = 1 AND t.b > 2 AND c IS NULL",
            "CREATE TABLE t (a INT, b INT, c INT); CREATE TABLE u (x INT)",
        )
        predicate = pushdown_filter(where, "t", slots)
        from repro.minidb.sqlgen import expr_to_sql

        sql = expr_to_sql(predicate)
        assert "a = 1" in sql and "b > 2" in sql
        assert "IS NULL" not in sql

    def test_pushdown_ignores_other_sources_columns(self):
        where, slots = bound(
            "SELECT * FROM t, u WHERE u.a = 1 AND b = 2",
            "CREATE TABLE t (b INT); CREATE TABLE u (a INT)",
        )
        predicate = pushdown_filter(where, "t", slots)
        from repro.minidb.sqlgen import expr_to_sql

        assert expr_to_sql(predicate) == "(b = 2)"

    def test_pushdown_skips_statement_ambiguous_unqualified(self):
        # "b" exists in both sources: it names no column, so it has no slot
        where, slots = bound(
            "SELECT * FROM t, u WHERE b = 2",
            "CREATE TABLE t (b INT); CREATE TABLE u (b INT)",
        )
        assert pushdown_filter(where, "t", slots) is None

    def test_pushdown_skips_unqualified_with_unknown_source(self):
        where, slots = bound("SELECT * FROM t, v WHERE b = 2", None)  # no catalog
        assert pushdown_filter(where, "t", slots) is None

    def test_ambiguous_unqualified_where_still_raises(self, s):
        # regression: both tables have "name"; the pushed-down filter and
        # the hash-key planner must not swallow the ambiguity error by
        # emptying the relation first
        s.execute("DELETE FROM emp WHERE salary < 95")  # make matches scarce
        from repro.minidb.errors import UnknownColumnError

        with pytest.raises(UnknownColumnError):
            s.execute("SELECT * FROM emp e, dept d WHERE name = 'zzz'")

    def test_ambiguous_with_later_source_not_hashed(self, s):
        # "x" lives in tables a and c; at fold time of b only a is joined,
        # but the key must still be rejected so WHERE raises like the seed
        s.execute("CREATE TABLE a (x INT)")
        s.execute("CREATE TABLE b (w INT)")
        s.execute("CREATE TABLE c (x INT)")
        s.execute("INSERT INTO a VALUES (1)")
        s.execute("INSERT INTO b VALUES (2)")
        s.execute("INSERT INTO c VALUES (9)")
        from repro.minidb.errors import UnknownColumnError

        sql = "SELECT * FROM a, b, c WHERE x = b.w"
        for statement in (sql, without_equi_keys(sql)):
            with pytest.raises(UnknownColumnError):
                s.execute(statement)

    def test_index_probe_respects_statement_ambiguity(self, s):
        # both tables have an indexed "id"; an unqualified probe must not
        # empty the scan and mask the ambiguity error (which would make the
        # error value-dependent: raised for matches, silent [] for misses)
        s.execute("CREATE TABLE t1 (id INT PRIMARY KEY)")
        s.execute("CREATE TABLE t2 (id INT PRIMARY KEY)")
        s.execute("INSERT INTO t1 VALUES (1)")
        s.execute("INSERT INTO t2 VALUES (1)")
        from repro.minidb.errors import UnknownColumnError

        for probe in (1, 999):  # hit and miss must behave identically
            with pytest.raises(UnknownColumnError):
                s.execute(f"SELECT * FROM t1, t2 WHERE id = {probe}")

    def test_duplicate_alias_in_derived_table_not_hashed(self, s):
        # a derived table exposing the same output name twice must raise
        # the ambiguity error, not silently hash-join on one of the columns
        s.execute("CREATE TABLE t (x INT, y INT)")
        s.execute("CREATE TABLE u (k INT)")
        s.execute("INSERT INTO t VALUES (1, 2)")
        s.execute("INSERT INTO u VALUES (1), (2)")
        from repro.minidb.errors import UnknownColumnError

        sql = "SELECT u.k FROM (SELECT x AS w, y AS w FROM t) d JOIN u ON w = u.k"
        for statement in (sql, without_equi_keys(sql)):
            with pytest.raises(UnknownColumnError):
                s.execute(statement)

    def test_prefilter_type_error_deferred_to_where(self, s):
        # seed semantics: WHERE is only evaluated on joined rows, so a
        # type-mismatched comparison over an empty product returns [] ...
        s.execute("CREATE TABLE lone (v INT)")
        s.execute("CREATE TABLE empty_t (w INT)")
        s.execute("INSERT INTO lone VALUES (1)")
        rows = both_strategies(
            s, "SELECT * FROM lone, empty_t WHERE lone.v < 'zzz'"
        )
        assert rows == []
        # ... and still raises once rows actually reach the WHERE filter
        s.execute("INSERT INTO empty_t VALUES (2)")
        from repro.minidb.errors import ExecutionError

        with pytest.raises(ExecutionError):
            s.execute("SELECT * FROM lone, empty_t WHERE lone.v < 'zzz'")

    def test_explain_shows_pushdown_filter(self, s):
        result = s.execute(
            "EXPLAIN SELECT * FROM emp e JOIN dept d ON e.dept_id = d.id "
            "WHERE e.salary > 75"
        )
        plans = "\n".join(r[0] for r in result.rows)
        assert "filter: (e.salary > 75)" in plans


class TestJoinPlanning:
    def test_plan_join_extracts_on_keys(self):
        stmt = parse("SELECT * FROM a JOIN b ON a.x = b.y AND a.z > b.w")
        join = stmt.joins[0]
        slots = analyze(stmt, catalog_of(AB_TABLES)).binding.slots
        plan = plan_join(join.kind, join.condition, stmt.where, "b", ["a", "b"], slots)
        assert plan.strategy == "hash"
        assert [(k.left_binding, k.left_column, k.right_column) for k in plan.keys] == [
            ("a", "x", "y")
        ]
        assert plan.residual is not None

    def test_plan_join_where_keys_added(self):
        stmt = parse("SELECT * FROM a JOIN b ON a.x = b.y WHERE a.z = b.w")
        join = stmt.joins[0]
        slots = analyze(stmt, catalog_of(AB_TABLES)).binding.slots
        plan = plan_join(join.kind, join.condition, stmt.where, "b", ["a", "b"], slots)
        assert len(plan.keys) == 2

    def test_plan_select_joins_spans_implicit_and_explicit(self):
        db = Database(owner="a")
        db.connect("a").execute_script(
            "CREATE TABLE a (x INT); CREATE TABLE b (y INT); CREATE TABLE c (k INT)"
        )
        stmt = parse(
            "SELECT * FROM a, b JOIN c ON c.k = a.x WHERE a.x = b.y"
        )
        plan = plan_select(stmt, db, db.catalog.table)
        assert [(j.right_binding, j.strategy) for j in plan.joins] == [
            ("b", "hash"), ("c", "hash")
        ]

    def test_explain_reports_hash_join(self, s):
        result = s.execute(
            "EXPLAIN SELECT * FROM emp e JOIN dept d ON e.dept_id = d.id"
        )
        plans = "\n".join(r[0] for r in result.rows)
        assert "Hash Join (INNER) on d (keys: e.dept_id = d.id)" in plans

    def test_explain_reports_nested_loop(self, s):
        result = s.execute(
            "EXPLAIN SELECT * FROM emp e JOIN dept d ON e.dept_id < d.id"
        )
        plans = "\n".join(r[0] for r in result.rows)
        assert "Nested Loop Join (INNER) on d" in plans

    def test_explain_reports_cross_join(self, s):
        result = s.execute("EXPLAIN SELECT * FROM emp, dept")
        plans = "\n".join(r[0] for r in result.rows)
        assert "Cross Join on dept" in plans


class TestScanAliasing:
    """A scan hands the pipeline copies: a schema change made while the
    statement is still running (here from inside a scalar function, the
    only in-statement hook SQL offers) mutates the live heap row dicts in
    place and must not show up in the rows already scanned."""

    @pytest.fixture
    def poke(self, s, monkeypatch):
        heap = s.db.heap("emp")

        def poke(args):
            if "name" in heap.get(1):
                heap.drop_column("name")  # in-place row mutation
            return args[0]

        monkeypatch.setitem(SCALAR_FUNCTIONS, "POKE", poke)

    def test_seq_scan_returns_copies(self, s, poke):
        rows = s.execute("SELECT POKE(id), name FROM emp").rows
        assert rows == [(1, "ann"), (2, "bob"), (3, "cal"), (4, "dot"), (5, "eve")]
        assert "name" not in s.db.heap("emp").get(1)  # the hook did run

    def test_index_scan_returns_copies(self, s, poke):
        sql = "SELECT POKE(id), name FROM emp WHERE id = 1"
        plan = plan_select(parse(sql), s.db, s.db.catalog.table)
        assert plan.scans[0].kind == "index"
        assert s.execute(sql).rows == [(1, "ann")]
        assert "name" not in s.db.heap("emp").get(1)


# --------------------------------------------------------------------------
# views, derived tables and system views beside base tables
# --------------------------------------------------------------------------

#: what a drawn block may put beside ``t``: binding -> (FROM text, columns)
SIDE_SOURCES = {
    "u": ("u", ("uid", "a", "c")),
    "v": ("v", ("vid", "b", "c")),
    "d": ("(SELECT a AS x, b AS x, id FROM w) d", ("x", "x", "id")),
    "e": ("(SELECT id AS eid, b FROM w) e", ("eid", "b")),
    "s": ("system.sessions s", ("session", "user", "in_transaction", "statements")),
}
COLUMNS = {"t": ("id", "a", "b"), **{b: c for b, (_, c) in SIDE_SOURCES.items()}}
#: a stable column of each source to select (``d.x`` is ambiguous, and a
#: session's statement count moves between runs)
SIDE_ITEMS = {"u": "u.uid", "v": "v.vid", "d": "d.id", "e": "e.eid", "s": "s.user"}
TEXT_COLUMNS = ("session", "user")
UNDRAWN = ("in_transaction", "statements")


@functools.lru_cache(maxsize=None)
def side_session():
    """``t`` (``ix_ta`` on ``a``), its unindexed twin ``t_plain``, ``u``,
    and the view ``v`` over ``w``; NULLs in every table."""
    db = Database(owner="a")
    session = db.connect("a")
    t_rows = ", ".join(f"({i}, {i % 4}, {i % 3})" for i in range(1, 9))
    session.execute_script(
        f"""
        CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT);
        CREATE INDEX ix_ta ON t (a);
        CREATE TABLE t_plain (id INT, a INT, b INT);
        INSERT INTO t VALUES {t_rows}, (9, NULL, NULL);
        INSERT INTO t_plain VALUES {t_rows}, (9, NULL, NULL);
        CREATE TABLE u (uid INT PRIMARY KEY, a INT, c INT);
        INSERT INTO u VALUES (1, 1, 1), (2, 2, 2), (3, 0, 3), (4, 1, 4), (5, NULL, 1);
        CREATE TABLE w (id INT PRIMARY KEY, a INT, b INT);
        INSERT INTO w VALUES (1, 1, 1), (2, 0, 2), (3, 1, 3), (4, 0, 0), (5, 1, 1),
            (6, NULL, NULL);
        CREATE VIEW v AS SELECT id AS vid, b, a AS c FROM w
        """
    )
    return session


def outcome(session, sql):
    """The rows of ``sql`` in a stable order, or its error."""
    try:
        return sorted(map(repr, session.execute(sql).rows))
    except MiniDBError as exc:
        return f"{type(exc).__name__}: {exc}"


def explain(session, sql):
    return "\n".join(line for (line,) in session.execute("EXPLAIN " + sql).rows)


def conjuncts_of(expr):
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return conjuncts_of(expr.left) + conjuncts_of(expr.right)
    return [] if expr is None else [expr]


def column_refs(expr):
    if isinstance(expr, ast.ColumnRef):
        return [expr]
    return [ref for child in ast.children(expr) for ref in column_refs(child)]


def named(ref, bindings):
    """``(binding, column)`` of the one column of ``bindings`` that ``ref``
    names, or None — SQL's name rule, read off :data:`COLUMNS`."""
    hits = [
        (binding, column)
        for binding in bindings
        if ref.table in (None, binding)
        for column in COLUMNS[binding]
        if column == ref.name
    ]
    return hits[0] if len(hits) == 1 else None


def names_resolve(conjuncts, bindings):
    return all(named(ref, bindings) for c in conjuncts for ref in column_refs(c))


def check_plan_names(session, sql):
    """Whether every name of ``sql`` names one column of its scope (the
    WHERE's: the block; an ON condition's: the sources folded so far),
    after asserting that the plan uses only such names: each hash key is
    an ON or WHERE ``col = col`` whose names resolve to its two columns,
    each pushed filter's names resolve to its own source, and each index
    probe's key column is bound by a resolving WHERE equality. A block
    where some name does not resolve must be refused before it is
    planned."""
    stmt = parse(sql)
    sources = list(stmt.from_sources) + [join.source for join in stmt.joins]
    bindings = [
        src.alias if isinstance(src, ast.SubqueryRef) else src.binding for src in sources
    ]
    where = conjuncts_of(stmt.where)
    wheres = [c for c in where if names_resolve([c], bindings)]
    conditions = [None] * len(stmt.from_sources) + [j.condition for j in stmt.joins]
    valid = len(wheres) == len(where) and all(
        names_resolve(conjuncts_of(condition), bindings[: position + 1])
        for position, condition in enumerate(conditions)
    )
    try:
        plan = plan_select(stmt, session.db, session.db.catalog.table)
    except MiniDBError:
        assert not valid, sql
        return False
    assert valid, sql
    for position, join in enumerate(plan.joins, 1):
        scope = bindings[: position + 1]
        on = conjuncts_of(conditions[position])
        equalities = [
            {named(c.left, scope), named(c.right, scope)}
            for c in on + wheres
            if isinstance(c, ast.BinaryOp) and c.op == "=" and len(column_refs(c)) == 2
        ]
        for key in join.keys:
            pair = {(key.left_binding, key.left_column),
                    (join.right_binding, key.right_column)}
            assert pair in equalities, (sql, join.describe())
    for scan in plan.scans:
        for c in conjuncts_of(scan.filter):
            assert all(named(r, bindings) == (scan.binding, r.name)
                       for r in column_refs(c)), (sql, scan.describe())
        if scan.path is not None and scan.path.kind != "seq":
            bound = {
                named(c.left, bindings)
                for c in wheres
                if isinstance(c, ast.BinaryOp) and c.op == "="
                and isinstance(c.right, ast.Literal)
            }
            assert all((scan.binding, k) in bound for k in scan.path.key_columns), (
                sql, scan.describe())
    return valid


@st.composite
def side_blocks(draw):
    """A SELECT over ``{t} AS t`` and one to three side sources, comma
    sources before JOINs, with ``col op literal`` and ``col = col``
    conjuncts in ON and WHERE; each column reference qualified or not,
    so names shared by two sources (``a``, ``b``, ``c``, ``id``) and the
    derived table's twice-exposed ``x`` are drawn too."""
    names = draw(st.lists(st.sampled_from(sorted(SIDE_SOURCES)), min_size=1,
                          max_size=3, unique=True))
    kinds = draw(st.lists(st.sampled_from([",", "JOIN", "LEFT JOIN"]),
                          min_size=len(names), max_size=len(names)))
    sides = sorted(zip(names, kinds), key=lambda side: side[1] != ",")

    def ref(binding):
        columns = sorted(set(COLUMNS[binding]).difference(UNDRAWN))
        column = draw(st.sampled_from(columns))
        return column, (f"{binding}.{column}" if draw(st.booleans()) else column)

    def conjunct(scope):
        column, text = ref(draw(st.sampled_from(scope)))
        if draw(st.booleans()):
            if column in TEXT_COLUMNS:
                literal = draw(st.sampled_from(["'a'", "'a#1'"]))
            else:
                literal = str(draw(st.integers(0, 3)))
            return f"{text} {draw(st.sampled_from(['=', '=', '<', '>=']))} {literal}"
        other_column, other_text = ref(draw(st.sampled_from(scope)))
        if (column in TEXT_COLUMNS) != (other_column in TEXT_COLUMNS):
            return f"{text} IS NOT NULL"
        return f"{text} = {other_text}"

    scope = ["t"]
    sql_from = "{t} AS t"
    for name, kind in sides:
        scope.append(name)
        text = SIDE_SOURCES[name][0]
        if kind == ",":
            sql_from += f", {text}"
            continue
        on = [conjunct(draw(st.sampled_from([[name], scope])))]
        on += [conjunct(scope) for _ in range(draw(st.integers(0, 1)))]
        sql_from += f" {kind} {text} ON {' AND '.join(on)}"
    where = [conjunct(scope) for _ in range(draw(st.integers(0, 3)))]
    items = ", ".join(["t.id", "t.a", "t.b"] + [SIDE_ITEMS[name] for name in names])
    sql = f"SELECT {items} FROM {sql_from}"
    return sql + (f" WHERE {' AND '.join(where)}" if where else "")


class TestSideSources:
    """Views, derived tables and system views are sources the planner
    knows the columns of, so WHERE and ON conjuncts beside them are probes,
    pushed filters and hash keys exactly when their names name one column
    of their scope — never otherwise (:func:`check_plan_names`). Each
    drawn block must give what its unindexed twin and its nested-loop
    spelling give — the same rows, or the same error. A name that does
    not resolve is refused when the statement is bound, before any row,
    so no plan can hide it."""

    @settings(max_examples=300, deadline=None)
    @given(side_blocks())
    @example("SELECT t.id, t.a, t.b, v.vid FROM {t} AS t JOIN v ON t.id = v.vid WHERE a = 3")
    @example("SELECT t.id, t.a, t.b, e.eid, v.vid FROM {t} AS t, "
             "(SELECT id AS eid, b FROM w) e JOIN v ON t.id = b")
    @example("SELECT t.id, t.a, t.b, d.id FROM {t} AS t, "
             "(SELECT a AS x, b AS x, id FROM w) d WHERE x = 1 AND a = 1")
    @example("SELECT t.id, t.a, t.b, s.user FROM {t} AS t JOIN system.sessions s "
             "ON user = 'a' WHERE a = 2")
    def test_rows_equal_the_twin_and_the_nested_loop(self, sql):
        s = side_session()
        planned = sql.format(t="t")
        valid = check_plan_names(s, planned)
        reference = without_equi_keys(planned)
        expected = outcome(s, planned)
        assert outcome(s, sql.format(t="t_plain")) == expected
        assert outcome(s, reference) == expected
        if valid:
            assert isinstance(expected, list), expected
            assert "Hash Join" not in explain(s, reference), reference
        else:
            assert expected.startswith("UnknownColumnError"), expected

    def test_where_beside_a_view_probes_the_index(self):
        s = side_session()
        sql = "SELECT * FROM t JOIN v ON t.id = v.vid WHERE a = 3"
        assert "Index Scan using ix_ta on t" in explain(s, sql)
        assert s.execute(sql).rows == [(3, 3, 0, 3, 3, 1)]


# --------------------------------------------------------------------------
# the hash join's key semantics: every cell class against the nested loop
# --------------------------------------------------------------------------

NAN = float("nan")
#: key cells by equality class — ``=`` holds within a class and never
#: across: ±0.0 beside 0 and FALSE, 1.0 beside 1 and TRUE, 2.0**53 beside
#: 2**53 but not 2**53 + 1, text that spells a number — and the cells
#: equal to nothing, not even themselves: NULL, one NaN object shared by
#: every row that draws it, and NaN objects of their own
KEY_CLASSES = [[0, 0.0, -0.0, False], [1, 1.0, True], [2**53, float(2**53)],
               [2**53 + 1], ["1"], ["a"], [None], [NAN], ["own NaN"]]
#: one to three classes per example, shared by both sides and both key
#: columns, so equal cells of different types (and one NaN object on
#: both sides) meet often
key_cells = st.shared(
    st.lists(st.sampled_from(KEY_CLASSES), min_size=1, max_size=3), key="key classes"
).flatmap(lambda classes: st.sampled_from(sum(classes, []))).map(
    lambda cell: float("nan") if cell == "own NaN" else cell
)
join_row = st.tuples(key_cells, key_cells, st.sampled_from([None, 0, 1, 2, 3]))
#: half the sides have ``k`` cells distinct as written, like a primary
#: key's, yet equal across types (``0``, ``0.0``, ``-0.0``, ``FALSE``)
join_rows = st.one_of(
    st.lists(join_row, max_size=6),
    st.lists(join_row, max_size=6, unique_by=lambda row: repr(row[0])),
)


@st.composite
def keyed_joins(draw):
    """A join of ``l`` and ``r`` on one or two ``col = col`` keys (either
    spelling order): INNER / LEFT / RIGHT with the keys in ON, or a comma
    join keyed from WHERE; with or without a residual ``l.v < r.v``."""
    kind = draw(st.sampled_from(["JOIN", "LEFT JOIN", "RIGHT JOIN", ","]))
    conjuncts = []
    for column in draw(st.sampled_from([["k"], ["j"], ["k", "j"], ["j", "k"]])):
        sides = [f"l.{column}", f"r.{column}"]
        conjuncts.append(" = ".join(sides[:: draw(st.sampled_from([1, -1]))]))
    if draw(st.booleans()):
        conjuncts.append("l.v < r.v")
    condition = " AND ".join(conjuncts)
    if kind == ",":
        return f"SELECT l.id, r.id FROM l, r WHERE {condition}"
    return f"SELECT l.id, r.id FROM l {kind} r ON {condition}"


def keyed_session(lefts, rights):
    """``l`` and ``r`` holding the drawn cells as they are: a heap insert
    skips coercion, so every class reaches the key columns."""
    db = Database(owner="a")
    session = db.connect("a")
    for table, rows in (("l", lefts), ("r", rights)):
        session.execute(f"CREATE TABLE {table} (id INT PRIMARY KEY, k INT, j INT, v INT)")
        heap = db.heap(table)
        for i, (k, j, v) in enumerate(rows):
            heap.insert({"id": i, "k": k, "j": j, "v": v})
    return session


@settings(deadline=None)
@given(lefts=join_rows, rights=join_rows, sql=keyed_joins())
@example(lefts=[(NAN, 0, 1)], rights=[(NAN, 0, 2)], sql="SELECT l.id, r.id FROM l JOIN r ON l.k = r.k")
@example(
    lefts=[(1, 0, None), (True, 0, None), (1.0, 0, None)],
    rights=[(True, 0, None), (1.0, 0, None), (1, 0, None)],
    sql="SELECT l.id, r.id FROM l LEFT JOIN r ON l.k = r.k",
)
@example(lefts=[(2**53 + 1, None, 0)], rights=[(float(2**53), None, 1), (2**53 + 1, None, 1)],
         sql="SELECT l.id, r.id FROM l RIGHT JOIN r ON r.k = l.k AND l.v < r.v")
def test_hash_join_pairs_what_the_nested_loop_pairs(lefts, rights, sql):
    """The hash plan's rows, in order, are the nested-loop spelling's:
    NULL and NaN keys match nothing (a shared NaN object not even
    itself), -0.0 = 0.0, 1 = 1.0 = TRUE, 2**53 + 1 <> 2.0**53, and text
    equals no number; duplicates on either side pair in probe order.
    No ``max_examples`` of its own: CI's ``ci-deep`` profile runs it at
    5,000."""
    s = keyed_session(lefts, rights)
    reference = without_equi_keys(sql)
    assert "Hash Join" in explain(s, sql)
    assert "Hash Join" not in explain(s, reference)
    assert s.execute(sql).rows == s.execute(reference).rows


def python_calls(rows: int, key: str, kind: str = "") -> "tuple[int, int]":
    """Python function calls (``sys.setprofile`` ``call`` events) made by
    one run of a join + GROUP BY of ``rows`` probe rows against ``rows``
    build rows, every operator in one batch and its plan already kept,
    and the C calls ``Executor._join`` makes itself (a per-pair
    ``append`` there calls no Python function, but counts here).
    ``key``: ``id`` joins on the build side's primary key (unique build
    keys); ``d`` on a column holding each key twice, so half the probe
    rows find none (``kind`` ``LEFT``: those are NULL-extended, and group
    under the NULL key)."""
    db = Database(owner="a")
    session = db.connect("a")
    session.execute("CREATE TABLE l (id INT PRIMARY KEY, k INT, v INT)")
    session.execute("CREATE TABLE r (id INT PRIMARY KEY, d INT, g INT)")
    for i in range(rows):
        db.heap("l").insert({"id": i, "k": i, "v": i % 7})
        db.heap("r").insert({"id": i, "d": i // 2, "g": i % 4})
    db.planner_options["batch_size"] = 2 * rows
    sql = f"SELECT r.g, COUNT(*), SUM(l.v) FROM l {kind} JOIN r ON l.k = r.{key} GROUP BY r.g"
    assert "Hash Join" in explain(session, sql)
    assert len(session.execute(sql).rows) == (5 if kind else 4)
    calls = c_calls = 0

    def profile(frame, event, arg):
        nonlocal calls, c_calls
        calls += event == "call"
        c_calls += event == "c_call" and frame.f_code is Executor._join.__code__

    gc.disable()
    sys.setprofile(profile)
    try:
        session.execute(sql)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, c_calls


@pytest.mark.parametrize(
    "key, kind",
    [("id", ""), ("d", ""), ("d", "LEFT")],
    ids=["unique-build", "duplicate-build", "left-unmatched"],
)
def test_join_python_calls_do_not_grow_with_the_rows(key, kind):
    """Pairing, NULL extension, gathers and grouping run in C or in loops
    that call nothing: a join of 10,000 rows makes the Python calls one
    of 100 rows makes."""
    assert python_calls(10_000, key, kind) == python_calls(100, key, kind)
