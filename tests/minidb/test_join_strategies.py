"""Tests for hash-join execution, join planning, and predicate pushdown.

Every query here is checked against the nested-loop plan of the same
statement with its column = column equalities spelled ``NOT (x <> y)``
(which the planner does not harvest as join keys), so hash joins are
proven drop-in equivalent to the seed executor's only strategy.
"""

import re

import pytest

from repro.minidb import Database, parse
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
        where = parse("SELECT * FROM t WHERE a = 1 AND t.b > 2 AND c IS NULL").where
        sources = [("t", ["a", "b", "c"]), ("u", ["x"])]
        predicate = pushdown_filter(where, "t", ["a", "b", "c"], sources)
        from repro.minidb.sqlgen import expr_to_sql

        sql = expr_to_sql(predicate)
        assert "a = 1" in sql and "b > 2" in sql
        assert "IS NULL" not in sql

    def test_pushdown_ignores_other_sources_columns(self):
        where = parse("SELECT * FROM t WHERE u.a = 1 AND b = 2").where
        sources = [("t", ["b"]), ("u", ["a"])]
        predicate = pushdown_filter(where, "t", ["b"], sources)
        from repro.minidb.sqlgen import expr_to_sql

        assert expr_to_sql(predicate) == "(b = 2)"

    def test_pushdown_skips_statement_ambiguous_unqualified(self):
        # "b" exists in both sources: pushing it could empty a scan and mask
        # the ambiguity error the WHERE evaluator must raise
        where = parse("SELECT * FROM t WHERE b = 2").where
        sources = [("t", ["b"]), ("u", ["b"])]
        assert pushdown_filter(where, "t", ["b"], sources) is None

    def test_pushdown_skips_unqualified_with_unknown_source(self):
        where = parse("SELECT * FROM t WHERE b = 2").where
        sources = [("t", ["b"]), ("v", None)]  # view: columns unknown
        assert pushdown_filter(where, "t", ["b"], sources) is None

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
        plan = plan_join(
            join.kind, join.condition, stmt.where,
            [("a", ["x", "z"])], "b", ["y", "w"],
        )
        assert plan.strategy == "hash"
        assert [(k.left_binding, k.left_column, k.right_column) for k in plan.keys] == [
            ("a", "x", "y")
        ]
        assert plan.residual is not None

    def test_plan_join_where_keys_added(self):
        stmt = parse("SELECT * FROM a JOIN b ON a.x = b.y WHERE a.z = b.w")
        join = stmt.joins[0]
        plan = plan_join(
            join.kind, join.condition, stmt.where,
            [("a", ["x", "z"])], "b", ["y", "w"],
        )
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
