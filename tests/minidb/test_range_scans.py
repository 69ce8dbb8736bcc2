"""Range-scan planning, ordered-scan/top-N execution, DML access paths,
and compiled predicates.

Every optimized plan must be a pure scan/sort reduction: the Hypothesis
property at the bottom executes random range/equality/ORDER BY/LIMIT
statements over random data (NULLs, duplicate keys, ties included) as
planned and against the reference legs — the same statement over an
unindexed twin of the table, on the interpreter, and for a bounded
statement the unbounded one cut in Python. Results must match byte for
byte, mirroring ``tests/minidb/test_join_strategies.py``'s
hash-vs-nested-loop contract.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interpreter_leg import use_engine

from repro.minidb import Database, parse
from repro.minidb.planner import (
    RangeBinding,
    choose_access_path,
    harvest_conjuncts,
)

#: a base-table source and its optional alias (keywords are upper case)
_SOURCE = re.compile(r"\b(FROM|JOIN) (t|u|h)\b( [a-z]\w*)?")
_BOUND = re.compile(r" LIMIT (\d+)(?: OFFSET (\d+))?$")


def plain_twin(session, table):
    """``<table>_plain``: the same columns and rows, in the same rid order,
    and no index — every plan over it is a sequential scan."""
    db = session.db
    twin = f"{table}_plain"
    session.execute(f"DROP TABLE IF EXISTS {twin}")
    columns = ", ".join(f"{c.name} {c.ctype}" for c in db.catalog.table(table).columns)
    session.execute(f"CREATE TABLE {twin} ({columns})")
    heap = db.heap(twin)
    for _, row in db.heap(table).rows():
        heap.insert(row)


def on_twins(sql):
    """``sql`` reading each base table's plain twin under the table's name."""
    return _SOURCE.sub(lambda m: f"{m[1]} {m[2]}_plain{m[3] or ' ' + m[2]}", sql)


def reference_rows(session, sql):
    """The reference legs of ``sql``: the statement on the plain twins with
    the interpreter, and — for a statement with LIMIT/OFFSET — the
    unbounded statement's rows cut in Python, the full sort that bounded
    top-N (``heapq.nsmallest``/``nlargest``, documented equal to
    ``sorted(...)[:n]``) must reproduce."""
    use_engine(session.db, False)
    try:
        legs = [session.execute(on_twins(sql)).rows]
        bound = _BOUND.search(sql)
        if bound:
            offset = int(bound[2] or 0)
            unbounded = session.execute(on_twins(sql[: bound.start()])).rows
            legs.append(unbounded[offset : offset + int(bound[1])])
    finally:
        use_engine(session.db, True)
    return legs


def both_plans(session, sql):
    """Run ``sql`` as planned and on its reference legs; assert equal rows."""
    for table in {m[2] for m in _SOURCE.finditer(sql)}:
        plain_twin(session, table)
    fast = session.execute(sql).rows
    for leg in reference_rows(session, sql):
        assert fast == leg, sql
    return fast


@pytest.fixture
def s():
    db = Database(owner="a")
    session = db.connect("a")
    session.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT, name TEXT)"
    )
    heap = db.heap("t")
    for i in range(200):
        heap.insert(
            {
                "id": i,
                "grp": i % 10,
                "val": (i * 37) % 100 if i % 17 else None,
                "name": f"n{i % 7}",
            }
        )
    session.execute("CREATE INDEX ix_val ON t USING BTREE (val)")
    session.execute("CREATE INDEX ix_grp_val ON t USING BTREE (grp, val)")
    return session


class TestRangeExtraction:
    def ranges(self, sql):
        return harvest_conjuncts(parse(f"SELECT * FROM t WHERE {sql}").where, "t").ranges

    def test_all_four_operators(self):
        ranges = self.ranges("a > 1 AND b >= 2 AND c < 3 AND d <= 4")
        assert (ranges["a"].low, ranges["a"].incl_low) == (1, False)
        assert (ranges["b"].low, ranges["b"].incl_low) == (2, True)
        assert (ranges["c"].high, ranges["c"].incl_high) == (3, False)
        assert (ranges["d"].high, ranges["d"].incl_high) == (4, True)

    def test_reversed_operands_flip_direction(self):
        ranges = self.ranges("5 < a AND 9 >= a")
        assert (ranges["a"].low, ranges["a"].incl_low) == (5, False)
        assert (ranges["a"].high, ranges["a"].incl_high) == (9, True)

    def test_between_binds_both_sides(self):
        ranges = self.ranges("a BETWEEN 2 AND 8")
        assert (ranges["a"].low, ranges["a"].high) == (2, 8)
        assert ranges["a"].incl_low and ranges["a"].incl_high

    def test_not_between_ignored(self):
        assert self.ranges("a NOT BETWEEN 2 AND 8") == {}

    def test_conjuncts_tighten(self):
        ranges = self.ranges("a >= 2 AND a > 3 AND a < 10 AND a < 8")
        assert (ranges["a"].low, ranges["a"].incl_low) == (3, False)
        assert (ranges["a"].high, ranges["a"].incl_high) == (8, False)

    def test_or_and_null_literals_ignored(self):
        assert self.ranges("a > 1 OR a < 5") == {}
        assert self.ranges("a > NULL") == {}

    def test_other_binding_qualifier_ignored(self):
        assert self.ranges("u.a > 1") == {}


class TestRangePathChoice:
    def test_range_path_on_btree(self, s):
        heap = s.db.heap("t")
        where = parse("SELECT * FROM t WHERE val >= 10 AND val < 20").where
        path, index, key = choose_access_path("t", heap, harvest_conjuncts(where, "t"))
        assert path.kind == "range"
        assert index.name == "ix_val"
        assert key is None
        assert "Index Range Scan using ix_val on t" in path.describe()
        assert "val >= 10 AND val < 20" in path.describe()

    def test_equality_prefix_plus_range(self, s):
        heap = s.db.heap("t")
        stmt = parse("SELECT * FROM t WHERE grp = 3 AND val > 50")
        path, index, _ = choose_access_path("t", heap, harvest_conjuncts(stmt.where, "t"))
        assert path.kind == "range"
        assert index.name == "ix_grp_val"
        assert path.prefix_values == (3,)
        assert path.range_column == "val"

    def test_full_equality_probe_beats_range(self, s):
        heap = s.db.heap("t")
        stmt = parse("SELECT * FROM t WHERE id = 7 AND val > 2")
        path, index, key = choose_access_path(
            "t", heap, harvest_conjuncts(stmt.where, "t")
        )
        assert path.kind == "index"
        assert index.unique

    def test_hash_indexes_never_serve_ranges(self, s):
        s.execute("CREATE TABLE h (x INT)")
        s.execute("CREATE INDEX ix_h ON h (x)")  # hash
        where = parse("SELECT * FROM h WHERE x > 2").where
        path, _, _ = choose_access_path("h", s.db.heap("h"), harvest_conjuncts(where, "h"))
        assert path.kind == "seq"


class TestRangeExecution:
    def test_range_scan_equivalence_and_stats(self, s):
        before = dict(s.db.planner_stats)
        rows = both_plans(s, "SELECT id FROM t WHERE val >= 10 AND val < 40")
        assert rows  # the window is populated
        assert s.db.planner_stats["range_scans"] == before["range_scans"] + 1

    def test_between_uses_range_scan(self, s):
        before = s.db.planner_stats["range_scans"]
        both_plans(s, "SELECT id FROM t WHERE val BETWEEN 20 AND 30")
        assert s.db.planner_stats["range_scans"] > before

    def test_residual_predicate_still_applied(self, s):
        rows = both_plans(
            s, "SELECT id, name FROM t WHERE val > 50 AND name = 'n3'"
        )
        assert all(name == "n3" for _, name in rows)

    def test_null_vals_never_in_bounded_range(self, s):
        rows = both_plans(s, "SELECT val FROM t WHERE val >= 0")
        assert all(val is not None for (val,) in rows)

    def test_cross_type_bound_follows_error_contract(self, s):
        # documented error-surfacing contract (planner module docstring):
        # the btree slice prunes exactly the rows whose evaluation would
        # raise, so the indexed plan returns empty where the seq-scan plan
        # raises the per-row comparison error
        from repro.minidb import ExecutionError

        assert s.execute("SELECT id FROM t WHERE val >= 'abc'").rows == []
        plain_twin(s, "t")
        with pytest.raises(ExecutionError):
            s.execute("SELECT id FROM t_plain WHERE val >= 'abc'")

    def test_explain_shows_range_plan(self, s):
        result = s.execute("EXPLAIN SELECT * FROM t WHERE val >= 5 AND val < 9")
        assert "Index Range Scan using ix_val on t (val >= 5 AND val < 9)" in (
            result.rows[0][0]
        )


class TestOrderedScan:
    def test_order_by_limit_uses_ordered_scan(self, s):
        before = s.db.planner_stats["ordered_scans"]
        rows = both_plans(s, "SELECT id, val FROM t ORDER BY val LIMIT 5")
        assert len(rows) == 5
        assert s.db.planner_stats["ordered_scans"] == before + 1

    def test_desc_and_offset(self, s):
        both_plans(s, "SELECT id, val FROM t ORDER BY val DESC LIMIT 5")
        both_plans(s, "SELECT id, val FROM t ORDER BY val DESC LIMIT 5 OFFSET 3")

    def test_nulls_last_in_both_directions(self, s):
        asc = both_plans(s, "SELECT val FROM t ORDER BY val")
        desc = both_plans(s, "SELECT val FROM t ORDER BY val DESC")
        assert asc[-1][0] is None and desc[-1][0] is None

    def test_equality_prefix_ordered_scan(self, s):
        before = s.db.planner_stats["ordered_scans"]
        both_plans(s, "SELECT id FROM t WHERE grp = 4 ORDER BY val LIMIT 3")
        assert s.db.planner_stats["ordered_scans"] == before + 1

    def test_range_on_order_column_combines(self, s):
        both_plans(
            s, "SELECT id, val FROM t WHERE val > 20 ORDER BY val LIMIT 4"
        )

    def test_where_residual_filters_during_scan(self, s):
        rows = both_plans(
            s, "SELECT id FROM t WHERE name = 'n1' ORDER BY val LIMIT 3"
        )
        assert len(rows) == 3

    def test_alias_shadowing_declines_fast_path(self, s):
        # "val" in ORDER BY names the output item (id AS val), not the column
        before = s.db.planner_stats["ordered_scans"]
        both_plans(s, "SELECT id AS val FROM t ORDER BY val LIMIT 3")
        assert s.db.planner_stats["ordered_scans"] == before

    def test_mixed_directions_decline_fast_path(self, s):
        before = s.db.planner_stats["ordered_scans"]
        both_plans(s, "SELECT id FROM t ORDER BY grp, val DESC LIMIT 3")
        assert s.db.planner_stats["ordered_scans"] == before

    def test_multi_column_desc_declines_fast_path(self, s):
        before = s.db.planner_stats["ordered_scans"]
        both_plans(s, "SELECT id FROM t ORDER BY grp DESC, val DESC LIMIT 3")
        assert s.db.planner_stats["ordered_scans"] == before

    def test_point_probe_beats_ordered_scan(self, s):
        before = dict(s.db.planner_stats)
        both_plans(s, "SELECT id FROM t WHERE id = 7 ORDER BY val LIMIT 1")
        assert s.db.planner_stats["ordered_scans"] == before["ordered_scans"]
        assert s.db.planner_stats["index_scans"] > before["index_scans"]

    def test_explain_shows_ordered_plan(self, s):
        result = s.execute("EXPLAIN SELECT id FROM t ORDER BY val LIMIT 10")
        assert "Ordered Index Scan using ix_val on t (ORDER BY val)" in (
            result.rows[0][0]
        )
        assert "(limit 10)" in result.rows[0][0]

    def test_limit_early_exit_skips_later_row_errors(self, s):
        # rows past the early exit are never evaluated (error contract):
        # the seq-scan plan raises on the poisoned rows, the ordered scan
        # stops before reaching them
        from repro.minidb import DivisionByZeroError

        sql = (
            "SELECT id FROM t WHERE "
            "CASE WHEN val < 50 THEN 1 ELSE 1 / (grp - grp) END = 1 "
            "ORDER BY val LIMIT 2"
        )
        assert len(s.execute(sql).rows) == 2
        plain_twin(s, "t")
        with pytest.raises(DivisionByZeroError):
            s.execute(on_twins(sql))

    def test_ordered_scan_without_limit_still_ordered(self, s):
        before = s.db.planner_stats["ordered_scans"]
        both_plans(s, "SELECT id, val FROM t ORDER BY val")
        assert s.db.planner_stats["ordered_scans"] == before + 1


class TestTopN:
    def test_heap_topn_on_unindexed_order(self, s):
        sql = "SELECT id FROM t ORDER BY name, id LIMIT 5"
        assert len(both_plans(s, sql)) == 5
        before = s.db.planner_stats["topn_limits"]
        s.execute(sql)
        assert s.db.planner_stats["topn_limits"] == before + 1

    def test_topn_with_offset(self, s):
        both_plans(s, "SELECT id FROM t ORDER BY name, id LIMIT 5 OFFSET 4")

    def test_topn_ties_match_stable_sort(self, s):
        # name has only 7 distinct values: LIMIT lands mid-tie
        both_plans(s, "SELECT id, name FROM t ORDER BY name LIMIT 40")

    def test_expression_order_keys_still_topn(self, s):
        sql = "SELECT id FROM t ORDER BY grp * 2, id DESC LIMIT 6"
        both_plans(s, sql)
        before = s.db.planner_stats["topn_limits"]
        s.execute(sql)
        assert s.db.planner_stats["topn_limits"] == before + 1

    def test_uniform_real_desc_top_n_counts_and_cuts_like_a_full_sort(self):
        """An all-REAL key column is its own sort key (``nlargest`` over row
        indexes): every bounded top-N still counts once in ``topn_limits``,
        the statement without LIMIT orders every row and its first ten are
        the top-N's, and the interpreter, the scan actuals and the trace
        record agree."""
        db = Database(owner="a")
        session = db.connect("a")
        session.execute("CREATE TABLE signals (signal_id INT PRIMARY KEY, dwell_s REAL)")
        values = [float((i * 37) % 23) for i in range(200)]  # ties at the cut
        for i, value in enumerate(values):
            db.heap("signals").insert({"signal_id": i, "dwell_s": value})
        db.observability_options["tracing"] = True
        unbounded = "SELECT dwell_s, signal_id FROM signals ORDER BY dwell_s DESC"
        sql = unbounded + " LIMIT 10"
        expected = [(v, i) for i, v in sorted(enumerate(values), key=lambda p: -p[1])][:10]
        stats = db.planner_stats
        # kernels, then the interpreter from the second run on
        runs = [
            (True, sql, 1, 10),
            (False, sql, 1, 10),
            (False, unbounded, 0, 200),
        ]
        for compiled, statement, topn, count in runs:
            use_engine(db, compiled)
            before = stats["topn_limits"]
            rows = session.execute(statement).rows
            assert (len(rows), rows[:10]) == (count, expected), statement
            assert stats["topn_limits"] == before + topn, statement
            scan = db.tracer.recent()[-1].scans[0]
            assert (scan["kind"], scan["rows"], scan["examined"]) == ("seq", 200, 200)
            explain = [
                line for (line,) in session.execute("EXPLAIN ANALYZE " + statement).rows
            ]
            assert explain[0].startswith("Seq Scan on signals (actual rows=200, ")
            assert explain[1] == f"Result rows: {count}"


class TestDMLAccessPaths:
    def test_update_uses_index_probe(self, s):
        before = dict(s.db.planner_stats)
        result = s.execute("UPDATE t SET name = 'z' WHERE id = 11")
        assert result.rowcount == 1
        assert s.db.planner_stats["index_scans"] == before["index_scans"] + 1
        assert s.db.planner_stats["seq_scans"] == before["seq_scans"]

    def test_update_uses_range_scan(self, s):
        before = dict(s.db.planner_stats)
        s.execute("UPDATE t SET name = 'hi' WHERE val >= 90 AND val < 95")
        assert s.db.planner_stats["range_scans"] == before["range_scans"] + 1
        assert s.db.planner_stats["seq_scans"] == before["seq_scans"]
        assert [r for (r,) in s.execute(
            "SELECT name FROM t WHERE val >= 90 AND val < 95"
        ).rows] == ["hi"] * s.execute(
            "SELECT COUNT(*) FROM t WHERE val >= 90 AND val < 95"
        ).scalar()

    def test_delete_uses_range_scan(self, s):
        count = s.execute("SELECT COUNT(*) FROM t WHERE val > 95").scalar()
        before = dict(s.db.planner_stats)
        result = s.execute("DELETE FROM t WHERE val > 95")
        assert result.rowcount == count
        assert s.db.planner_stats["range_scans"] == before["range_scans"] + 1
        assert s.db.planner_stats["seq_scans"] == before["seq_scans"]

    def test_dml_without_where_stays_seq(self, s):
        before = dict(s.db.planner_stats)
        s.execute("UPDATE t SET name = name")
        assert s.db.planner_stats["seq_scans"] == before["seq_scans"] + 1
        assert s.db.planner_stats["index_scans"] == before["index_scans"]

    def test_update_results_identical_to_seq_plan(self, s):
        fast_db = s.db
        s.execute("UPDATE t SET name = 'upd' WHERE grp = 3 AND val > 40")
        fast = fast_db.snapshot()

        # the reference: the same rows in a table without any index, on
        # the interpreter
        db2 = Database(owner="a")
        s2 = db2.connect("a")
        s2.execute("CREATE TABLE t (id INT, grp INT, val INT, name TEXT)")
        heap = db2.heap("t")
        for i in range(200):
            heap.insert(
                {
                    "id": i,
                    "grp": i % 10,
                    "val": (i * 37) % 100 if i % 17 else None,
                    "name": f"n{i % 7}",
                }
            )
        use_engine(db2, False)
        s2.execute("UPDATE t SET name = 'upd' WHERE grp = 3 AND val > 40")
        assert db2.snapshot() == fast

    def test_update_undo_through_range_plan(self, s):
        before = s.db.snapshot()
        s.execute("BEGIN")
        s.execute("UPDATE t SET name = 'tmp' WHERE val >= 10 AND val < 60")
        s.execute("DELETE FROM t WHERE val >= 60")
        s.execute("ROLLBACK")
        assert s.db.snapshot() == before

    def test_subquery_where_falls_back(self, s):
        expected = s.execute("SELECT COUNT(*) FROM t WHERE val > 90").scalar()
        result = s.execute(
            "DELETE FROM t WHERE id IN (SELECT id FROM t WHERE val > 90)"
        )
        assert result.rowcount == expected > 0
        assert s.execute("SELECT COUNT(*) FROM t WHERE val > 90").scalar() == 0


class TestUnionExtraction:
    def unions(self, sql):
        return harvest_conjuncts(parse(f"SELECT * FROM t WHERE {sql}").where, "t").unions

    def test_in_list_collects_points(self):
        unions = self.unions("a IN (1, 2, 3)")
        assert unions["a"].points == [1, 2, 3]
        assert unions["a"].ranges == []

    def test_in_list_drops_nulls_and_duplicates(self):
        unions = self.unions("a IN (5, NULL, 5, 2, 2)")
        assert unions["a"].points == [5, 2]

    def test_negated_and_subquery_in_ignored(self):
        assert self.unions("a NOT IN (1, 2)") == {}
        assert self.unions("a IN (SELECT a FROM t)") == {}

    def test_or_chain_of_ranges_and_points(self):
        unions = self.unions("a < 2 OR a BETWEEN 5 AND 7 OR a = 11")
        entry = unions["a"]
        assert entry.points == [11]
        assert len(entry.ranges) == 2
        assert (entry.ranges[0].high, entry.ranges[0].incl_high) == (2, False)
        assert (entry.ranges[1].low, entry.ranges[1].high) == (5, 7)

    def test_or_across_columns_rejected(self):
        assert self.unions("a = 1 OR b = 2") == {}

    def test_one_bad_disjunct_disqualifies_the_chain(self):
        assert self.unions("a = 1 OR a = 2 OR a LIKE 'x'") == {}

    def test_tighter_conjunct_wins(self):
        unions = self.unions("a IN (1, 2, 3) AND a IN (2, 3)")
        assert unions["a"].points == [2, 3]

    def test_other_binding_qualifier_ignored(self):
        assert self.unions("u.a IN (1, 2)") == {}


class TestUnionExecution:
    def test_in_list_uses_union_scan(self, s):
        sql = "SELECT id FROM t WHERE val IN (10, 20, 30)"
        assert both_plans(s, sql)
        before = dict(s.db.planner_stats)
        s.execute(sql)
        assert s.db.planner_stats["union_scans"] == before["union_scans"] + 1
        assert s.db.planner_stats["seq_scans"] == before["seq_scans"]

    def test_or_of_ranges_uses_union_scan(self, s):
        before = s.db.planner_stats["union_scans"]
        both_plans(
            s, "SELECT id FROM t WHERE val < 5 OR val BETWEEN 90 AND 95"
        )
        assert s.db.planner_stats["union_scans"] == before + 1

    def test_union_with_nulls_and_duplicates_identical(self, s):
        both_plans(s, "SELECT id FROM t WHERE val IN (1, NULL, 1, 99, 99)")
        both_plans(s, "SELECT id FROM t WHERE val IN (NULL)")

    def test_residual_predicate_still_applied(self, s):
        rows = both_plans(
            s, "SELECT id, name FROM t WHERE val IN (10, 20) AND name = 'n1'"
        )
        assert all(name == "n1" for _, name in rows)

    def test_hash_index_serves_point_only_union(self, s):
        s.execute("CREATE TABLE h (x INT, y INT)")
        s.execute("CREATE INDEX ix_h ON h (x)")  # hash
        for i in range(50):
            s.execute(f"INSERT INTO h VALUES ({i % 5}, {i})")
        before = s.db.planner_stats["union_scans"]
        rows = both_plans(s, "SELECT y FROM h WHERE x IN (1, 3)")
        assert len(rows) == 20
        assert s.db.planner_stats["union_scans"] == before + 1
        # ranges disqualify the hash index: no btree on x -> seq scan
        harvest = harvest_conjuncts(
            parse("SELECT * FROM h WHERE x = 1 OR x > 3").where, "h"
        )
        path, _, _ = choose_access_path("h", s.db.heap("h"), harvest)
        assert path.kind == "seq"

    def test_explain_shows_union_plan(self, s):
        result = s.execute("EXPLAIN SELECT * FROM t WHERE val IN (1, 2)")
        assert "Index Union Scan using ix_val on t (val IN (1, 2))" in (
            result.rows[0][0]
        )

    def test_full_equality_probe_beats_union(self, s):
        before = dict(s.db.planner_stats)
        both_plans(s, "SELECT id FROM t WHERE id = 7 AND val IN (1, 2)")
        assert s.db.planner_stats["index_scans"] > before["index_scans"]
        assert s.db.planner_stats["union_scans"] == before["union_scans"]


class TestDMLUnionAndCounterParity:
    """DML target resolution must bump the same planner_stats counters as
    the equivalent SELECT — the regression this PR pins."""

    def test_update_through_union_scan(self, s):
        before = dict(s.db.planner_stats)
        s.execute("UPDATE t SET name = 'u' WHERE val IN (10, 20, 30)")
        assert s.db.planner_stats["union_scans"] == before["union_scans"] + 1
        assert s.db.planner_stats["seq_scans"] == before["seq_scans"]

    def test_delete_through_union_scan(self, s):
        count = s.execute(
            "SELECT COUNT(*) FROM t WHERE val IN (97, 98, 99)"
        ).scalar()
        before = dict(s.db.planner_stats)
        result = s.execute("DELETE FROM t WHERE val IN (97, 98, 99)")
        assert result.rowcount == count > 0
        assert s.db.planner_stats["union_scans"] == before["union_scans"] + 1
        assert s.db.planner_stats["seq_scans"] == before["seq_scans"]

    def test_select_and_dml_bump_same_counters(self, s):
        for sql_select, sql_dml, counter in (
            (
                "SELECT id FROM t WHERE val >= 10 AND val < 20",
                "UPDATE t SET name = 'x' WHERE val >= 10 AND val < 20",
                "range_scans",
            ),
            (
                "SELECT id FROM t WHERE id = 3",
                "UPDATE t SET name = 'x' WHERE id = 3",
                "index_scans",
            ),
            (
                "SELECT id FROM t WHERE val IN (1, 2)",
                "DELETE FROM t WHERE val IN (1, 2)",
                "union_scans",
            ),
        ):
            before = dict(s.db.planner_stats)
            s.execute(sql_select)
            mid = dict(s.db.planner_stats)
            assert mid[counter] == before[counter] + 1, counter
            s.execute(sql_dml)
            after = dict(s.db.planner_stats)
            assert after[counter] == mid[counter] + 1, counter
            assert after["seq_scans"] == before["seq_scans"], counter

    def test_union_dml_undo_through_rollback(self, s):
        before = s.db.snapshot()
        s.execute("BEGIN")
        s.execute("UPDATE t SET name = 'tmp' WHERE val IN (10, 20)")
        s.execute("DELETE FROM t WHERE val IN (30, 40)")
        s.execute("ROLLBACK")
        assert s.db.snapshot() == before


class TestCostBasedPlanning:
    @pytest.fixture
    def skewed(self):
        db = Database(owner="a")
        session = db.connect("a")
        session.execute(
            "CREATE TABLE k (id INT PRIMARY KEY, hot INT, val INT)"
        )
        heap = db.heap("k")
        for i in range(1000):
            heap.insert(
                {
                    "id": i,
                    # 90% of rows share hot=0, the rest are distinct
                    "hot": i if i % 10 == 0 else 0,
                    "val": (i * 7919) % 1000,
                }
            )
        session.execute("CREATE INDEX ix_hot ON k (hot)")  # hash
        session.execute("CREATE INDEX ix_kval ON k USING BTREE (val)")
        return session

    SKEW_SQL = "SELECT COUNT(*) FROM k WHERE hot = 0 AND val >= 100 AND val < 120"

    def test_static_order_picks_the_heavy_probe(self, skewed):
        plan = skewed.execute(f"EXPLAIN {self.SKEW_SQL}").rows[0][0]
        assert "Index Scan using ix_hot" in plan
        assert "est. rows" not in plan  # no statistics yet

    def test_stats_switch_to_the_cheaper_range(self, skewed):
        """The regression pin: with ANALYZE statistics the cost model must
        override the static preference for the fully-bound hash probe."""
        without = skewed.execute(self.SKEW_SQL).scalar()
        skewed.execute("ANALYZE k")
        plan = skewed.execute(f"EXPLAIN {self.SKEW_SQL}").rows[0][0]
        assert "Index Range Scan using ix_kval" in plan
        assert "est. rows" in plan
        assert skewed.execute(self.SKEW_SQL).scalar() == without

    def test_stale_uid_statistics_are_ignored(self, skewed):
        skewed.execute("ANALYZE k")
        skewed.execute("DROP TABLE k")
        skewed.execute("CREATE TABLE k (id INT PRIMARY KEY, hot INT, val INT)")
        skewed.execute("CREATE INDEX ix_hot ON k (hot)")
        skewed.execute("CREATE INDEX ix_kval ON k USING BTREE (val)")
        # recreation dropped the stats with the table; but even a manually
        # restored entry with the old uid must not influence planning
        plan = skewed.execute(f"EXPLAIN {self.SKEW_SQL}").rows[0][0]
        assert "est. rows" not in plan

    def test_unanalyzed_plans_match_static_order(self, skewed):
        # no ANALYZE anywhere: the static preference order is untouched
        for sql, expected in (
            (self.SKEW_SQL, "Index Scan using ix_hot"),
            ("SELECT * FROM k WHERE val > 5", "Index Range Scan"),
            ("SELECT * FROM k WHERE val IN (1, 2)", "Index Union Scan"),
        ):
            assert expected in skewed.execute(f"EXPLAIN {sql}").rows[0][0]

    def test_estimates_appear_after_analyze(self, skewed):
        skewed.execute("ANALYZE")
        for sql in (
            "SELECT * FROM k WHERE id = 5",
            "SELECT * FROM k WHERE val IN (1, 2, 3)",
            "SELECT * FROM k",
        ):
            assert "est. rows" in skewed.execute(f"EXPLAIN {sql}").rows[0][0]

    def test_unique_probe_estimate_clamps_to_one(self, skewed):
        skewed.execute("ANALYZE k")
        plan = skewed.execute("EXPLAIN SELECT * FROM k WHERE id = 5").rows[0][0]
        assert "est. rows=1" in plan


class TestCompiledPredicates:
    def test_seq_scan_where_equivalence(self, s):
        both_plans(
            s,
            "SELECT id FROM t WHERE grp * 10 + 1 > 35 AND name LIKE 'n%' "
            "AND val IS NOT NULL",
        )

    def test_case_in_between_like(self, s):
        both_plans(
            s,
            "SELECT id FROM t WHERE CASE WHEN grp > 5 THEN val ELSE grp END "
            "BETWEEN 3 AND 80 AND grp IN (1, 3, 5, 7, 9)",
        )

    def test_correlated_subquery_falls_back(self, s):
        both_plans(
            s,
            "SELECT id FROM t WHERE EXISTS "
            "(SELECT 1 FROM t u WHERE u.id = t.id AND u.grp = 3)",
        )

    def test_division_error_surfaces_identically(self, s):
        from repro.minidb import DivisionByZeroError

        for enabled in (True, False):
            use_engine(s.db, enabled)
            try:
                with pytest.raises(DivisionByZeroError):
                    s.execute("SELECT id FROM t WHERE 1 / (grp - grp) > 0")
            finally:
                use_engine(s.db, True)

    def test_join_residual_compiled(self, s):
        s.execute("CREATE TABLE u (id INT PRIMARY KEY, lo INT, hi INT)")
        s.execute("INSERT INTO u VALUES (1, 10, 40), (2, 50, 80)")
        both_plans(
            s,
            "SELECT t.id, u.id FROM t JOIN u "
            "ON t.grp = u.id AND t.val > u.lo ORDER BY t.id, u.id",
        )


# ---------------------------------------------------------------------------
# Hypothesis equivalence property
# ---------------------------------------------------------------------------

COLUMNS = ("a", "b", "c")

rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 6)),
        st.one_of(st.none(), st.integers(0, 12)),
        st.one_of(st.none(), st.sampled_from(["x", "y", "zz", "a b"])),
    ),
    min_size=0,
    max_size=60,
)

comparison = st.tuples(
    st.sampled_from(COLUMNS),
    st.sampled_from([">", ">=", "<", "<=", "=", "BETWEEN"]),
    st.integers(0, 12),
    st.integers(0, 12),
)

# IN-lists keep NULL members and duplicates on purpose: the union path
# must drop/dedup them while staying byte-identical to the seq scan
in_conjunct = st.tuples(
    st.just("IN"),
    st.sampled_from(COLUMNS),
    st.lists(st.one_of(st.none(), st.integers(0, 12)), min_size=1, max_size=6),
)

# OR-of-ranges over one column — eligible for the union path when every
# disjunct qualifies, a plain filter otherwise
or_conjunct = st.tuples(
    st.just("OR"),
    st.sampled_from(COLUMNS),
    st.lists(
        st.tuples(
            st.sampled_from([">", ">=", "<", "<=", "=", "BETWEEN"]),
            st.integers(0, 12),
            st.integers(0, 12),
        ),
        min_size=2,
        max_size=3,
    ),
)

where_strategy = st.lists(
    st.one_of(comparison, in_conjunct, or_conjunct), min_size=0, max_size=3
)

order_strategy = st.one_of(
    st.none(),
    st.tuples(
        st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=2, unique=True),
        st.booleans(),
    ),
)

limit_strategy = st.one_of(
    st.none(), st.tuples(st.integers(0, 20), st.integers(0, 5))
)


def conjunct_column(entry):
    return entry[1] if entry[0] in ("IN", "OR") else entry[0]


def render_conjunct(entry):
    if entry[0] == "IN":
        _, column, members = entry
        body = ", ".join("NULL" if m is None else str(m) for m in members)
        return f"{column} IN ({body})"
    if entry[0] == "OR":
        _, column, disjuncts = entry
        parts = []
        for op, lo, hi in disjuncts:
            if op == "BETWEEN":
                parts.append(f"{column} BETWEEN {min(lo, hi)} AND {max(lo, hi)}")
            else:
                parts.append(f"{column} {op} {lo}")
        return "(" + " OR ".join(parts) + ")"
    column, op, lo, hi = entry
    if op == "BETWEEN":
        return f"{column} BETWEEN {min(lo, hi)} AND {max(lo, hi)}"
    return f"{column} {op} {lo}"


def build_statement(conjuncts, order, limit):
    sql = "SELECT id, a, b, c FROM t"
    if conjuncts:
        sql += " WHERE " + " AND ".join(
            render_conjunct(entry) for entry in conjuncts
        )
    if order is not None:
        columns, descending = order
        suffix = " DESC" if descending else ""
        sql += " ORDER BY " + ", ".join(f"{c}{suffix}" for c in columns)
    if limit is not None:
        count, offset = limit
        sql += f" LIMIT {count}"
        if offset:
            sql += f" OFFSET {offset}"
    return sql


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, statements=st.lists(
    st.tuples(where_strategy, order_strategy, limit_strategy),
    min_size=1, max_size=4,
))
def test_indexed_execution_equivalent_to_seq_scan(rows, statements):
    """Random data + random statements: fast paths vs the seq scans of the
    unindexed twin (and, when bounded, the cut unbounded statement) must
    match byte for byte — NULL ordering, duplicate keys,
    LIMIT-straddling ties, IN-lists with NULL/duplicate members, and
    OR-of-ranges included. Text columns use integer-free values so both
    plans stay inside comparable-type territory."""
    db = Database(owner="a")
    session = db.connect("a")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, c TEXT)")
    heap = db.heap("t")
    for i, (a, b, c) in enumerate(rows):
        heap.insert({"id": i, "a": a, "b": b, "c": c})
    session.execute("CREATE INDEX ix_a ON t USING BTREE (a)")
    session.execute("CREATE INDEX ix_ab ON t USING BTREE (a, b)")
    session.execute("CREATE INDEX ix_c ON t USING BTREE (c)")
    plain_twin(session, "t")
    for conjuncts, order, limit in statements:
        # c is TEXT: integer comparisons against it would raise (a
        # data-dependent error the access-path contract lets plans skip);
        # it still participates via ORDER BY c and the ix_c ordered scan
        text_free = [
            entry for entry in conjuncts if conjunct_column(entry) != "c"
        ]
        sql = build_statement(text_free, order, limit)
        fast = session.execute(sql).rows
        for leg in reference_rows(session, sql):
            assert fast == leg, sql
