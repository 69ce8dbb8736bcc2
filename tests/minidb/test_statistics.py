"""ANALYZE and the statistics subsystem: parsing, collection math,
payload round trips, and the executor lifecycle.

The planner-facing half (cost-based path choice, EXPLAIN estimates,
staleness) lives in ``test_range_scans.py::TestCostBasedPlanning``;
durability (snapshots, WAL replay, torn tails) in
``test_btree_persistence.py``.
"""

import pytest

from repro.minidb import Database, UnknownTableError, parse
from repro.minidb.ast_nodes import AnalyzeStatement
from repro.minidb.sqlgen import analyze_to_sql
from repro.minidb.statistics import (
    ColumnStats,
    TableStatistics,
    build_table_statistics,
)


@pytest.fixture
def s():
    db = Database(owner="a")
    session = db.connect("a")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, name TEXT)")
    for i in range(70):
        db.heap("t").insert(
            {"id": i, "grp": i % 7, "name": None if i % 5 == 0 else f"n{i}"}
        )
    return session


class TestParserAndSqlgen:
    def test_parse_bare_analyze(self):
        assert parse("ANALYZE") == AnalyzeStatement(table=None)

    def test_parse_analyze_table(self):
        assert parse("ANALYZE events") == AnalyzeStatement(table="events")

    @pytest.mark.parametrize(
        "stmt",
        [AnalyzeStatement(table=None), AnalyzeStatement(table="events")],
    )
    def test_sqlgen_round_trip(self, stmt):
        assert parse(analyze_to_sql(stmt)) == stmt


class TestColumnStats:
    def test_empty_column(self):
        stats = ColumnStats.from_values([])
        assert (stats.ndv, stats.null_frac) == (0, 0.0)
        assert stats.eq_fraction(1) == 0.0
        assert stats.range_fraction(0, 10) == 0.0

    def test_all_null_column(self):
        stats = ColumnStats.from_values([None, None, None])
        assert (stats.ndv, stats.null_frac) == (0, 1.0)
        assert stats.eq_fraction(1) == 0.0

    def test_uniform_distribution(self):
        stats = ColumnStats.from_values(list(range(1000)))
        assert stats.ndv == 1000
        assert stats.eq_fraction(500) == pytest.approx(1 / 1000)
        assert stats.range_fraction(250, 750) == pytest.approx(0.5, abs=0.05)
        assert stats.range_fraction() == pytest.approx(1.0)

    def test_heavy_hitter_is_seen_not_averaged(self):
        # one value fills 90% of the rows: a uniform 1/ndv guess would say
        # ~1%, the boundary-multiplicity estimate must say ~90%
        values = [7] * 900 + list(range(100, 200))
        stats = ColumnStats.from_values(values)
        assert stats.eq_fraction(7) == pytest.approx(0.9, abs=0.05)
        assert stats.eq_fraction(150) == pytest.approx(1 / stats.ndv)

    def test_null_fraction_scales_estimates(self):
        stats = ColumnStats.from_values([1, 2, 3, 4, None, None, None, None])
        assert stats.null_frac == pytest.approx(0.5)
        assert stats.eq_fraction(2) == pytest.approx(0.5 / 4)
        assert stats.range_fraction() == pytest.approx(0.5)

    def test_eq_fraction_of_null_is_zero(self):
        stats = ColumnStats.from_values([1, 2, None])
        assert stats.eq_fraction(None) == 0.0

    def test_range_fraction_clamps_outside_domain(self):
        stats = ColumnStats.from_values(list(range(100)))
        assert stats.range_fraction(low=1000) == 0.0
        assert stats.range_fraction(high=-5) == 0.0
        assert stats.range_fraction(low=-50, high=500) == pytest.approx(1.0)

    def test_payload_round_trip(self):
        stats = ColumnStats.from_values([5, 1, None, 5, "x", 2])
        clone = ColumnStats.from_payload(stats.to_payload())
        assert clone == stats


class TestBuildTableStatistics:
    def test_scan_stamps_heap_identity(self, s):
        heap = s.db.heap("t")
        schema = s.db.catalog.tables["t"]
        stats = build_table_statistics(schema, heap)
        assert stats.table == "t"
        assert stats.row_count == 70
        assert (stats.uid, stats.version) == (heap.uid, heap.version)
        assert stats.column("id").ndv == 70
        assert stats.column("grp").ndv == 7
        assert stats.column("name").null_frac == pytest.approx(14 / 70)
        assert stats.column("missing") is None

    def test_table_payload_round_trip(self, s):
        stats = build_table_statistics(
            s.db.catalog.tables["t"], s.db.heap("t")
        )
        clone = TableStatistics.from_payload(stats.to_payload())
        assert clone == stats


class TestAnalyzeExecution:
    def test_analyze_one_table(self, s):
        result = s.execute("ANALYZE t")
        assert result.status == "ANALYZE 1"
        stats = s.db.catalog.statistics["t"]
        assert stats.row_count == 70

    def test_bare_analyze_covers_all_tables(self, s):
        s.execute("CREATE TABLE other (x INT)")
        assert s.execute("ANALYZE").status == "ANALYZE 2"
        assert set(s.db.catalog.statistics) == {"t", "other"}

    def test_unknown_table_raises(self, s):
        with pytest.raises(UnknownTableError):
            s.execute("ANALYZE nope")

    def test_statistics_keyed_case_insensitively(self, s):
        s.execute("ANALYZE T")
        assert "t" in s.db.catalog.statistics

    def test_reanalyze_refreshes_the_snapshot(self, s):
        s.execute("ANALYZE t")
        before = s.db.catalog.statistics["t"]
        s.execute("INSERT INTO t VALUES (100, 100, 'new')")
        s.execute("ANALYZE t")
        after = s.db.catalog.statistics["t"]
        assert after.row_count == before.row_count + 1
        assert after.version > before.version

    def test_rollback_restores_previous_statistics(self, s):
        s.execute("ANALYZE t")
        before = s.db.catalog.statistics["t"]
        s.execute("INSERT INTO t VALUES (100, 100, 'new')")
        s.execute("BEGIN")
        s.execute("ANALYZE t")
        assert s.db.catalog.statistics["t"].row_count == 71
        s.execute("ROLLBACK")
        assert s.db.catalog.statistics["t"] is before

    def test_rollback_removes_first_time_statistics(self, s):
        s.execute("BEGIN")
        s.execute("ANALYZE t")
        s.execute("ROLLBACK")
        assert "t" not in s.db.catalog.statistics

    def test_rolled_back_drop_keeps_the_statistics(self, s):
        s.execute("ANALYZE t")
        stats = s.db.catalog.statistics["t"]
        explain = "EXPLAIN SELECT * FROM t WHERE grp = 3"
        plan = s.execute(explain).rows
        s.execute("BEGIN")
        s.execute("DROP TABLE t")
        assert "t" not in s.db.catalog.statistics
        s.execute("ROLLBACK")
        assert s.db.catalog.statistics["t"] is stats
        assert s.execute(explain).rows == plan

    def test_drop_table_leaves_stats_ignored_via_uid(self, s):
        # statistics for a dropped-and-recreated table must never apply:
        # the heap uid changes, which the planner checks before costing
        s.execute("ANALYZE t")
        stale = s.db.catalog.statistics["t"]
        s.execute("DROP TABLE t")
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, name TEXT)")
        assert stale.uid != s.db.heap("t").uid
