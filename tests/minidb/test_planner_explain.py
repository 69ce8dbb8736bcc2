"""Tests for access-path planning and EXPLAIN."""

import pytest

from repro.minidb import Database, parse
from repro.minidb.planner import (
    choose_access_path,
    harvest_conjuncts,
    plan_select,
)


@pytest.fixture
def s():
    db = Database(owner="a")
    session = db.connect("a")
    session.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, grp INT, name TEXT, val FLOAT)"
    )
    session.execute("CREATE INDEX ix_grp ON t (grp)")
    for i in range(200):
        session.db.heap("t").insert(
            {"id": i, "grp": i % 10, "name": f"n{i}", "val": float(i)}
        )
    return session


class TestEqualityExtraction:
    def equalities(self, sql):
        where = parse(f"SELECT * FROM t WHERE {sql}").where if sql else None
        return harvest_conjuncts(where, "t").equalities

    def test_simple_equality(self):
        assert list(self.equalities("grp = 3").items()) == [("grp", 3)]

    def test_reversed_operands(self):
        assert list(self.equalities("5 = id")) == ["id"]

    def test_and_conjuncts_collected(self):
        bindings = self.equalities("grp = 1 AND name = 'x' AND val > 2")
        assert set(bindings) == {"grp", "name"}

    def test_or_not_extracted(self):
        assert self.equalities("grp = 1 OR grp = 2") == {}

    def test_qualified_other_binding_ignored(self):
        assert self.equalities("u.grp = 1") == {}

    def test_null_equality_ignored(self):
        assert self.equalities("grp = NULL") == {}

    def test_none_where(self):
        assert self.equalities(None) == {}


class TestAccessPathChoice:
    def test_index_chosen_for_bound_column(self, s):
        heap = s.db.heap("t")
        harvest = harvest_conjuncts(parse("SELECT * FROM t WHERE grp = 3").where, "t")
        path, index, key = choose_access_path("t", heap, harvest)
        assert path.kind == "index"
        assert index.name == "ix_grp"
        assert key == (3,)

    def test_unique_index_preferred(self, s):
        heap = s.db.heap("t")
        harvest = harvest_conjuncts(
            parse("SELECT * FROM t WHERE grp = 3 AND id = 7").where, "t"
        )
        path, index, _ = choose_access_path("t", heap, harvest)
        assert index.unique  # the PK index wins over ix_grp

    def test_seq_scan_without_match(self, s):
        heap = s.db.heap("t")
        harvest = harvest_conjuncts(
            parse("SELECT * FROM t WHERE name = 'x'").where, "t"
        )
        path, index, _ = choose_access_path("t", heap, harvest)
        assert path.kind == "seq"
        assert index is None


class TestPlannedExecution:
    def test_results_identical_with_and_without_index(self, s):
        indexed = s.execute("SELECT id FROM t WHERE grp = 4 ORDER BY id").rows
        s.execute("DROP INDEX ix_grp")
        scanned = s.execute("SELECT id FROM t WHERE grp = 4 ORDER BY id").rows
        assert indexed == scanned
        assert len(indexed) == 20

    def test_planner_stats_updated(self, s):
        before = dict(s.db.planner_stats)
        s.execute("SELECT * FROM t WHERE grp = 1")
        assert s.db.planner_stats["index_scans"] == before["index_scans"] + 1
        s.execute("SELECT * FROM t WHERE val > 5")
        assert s.db.planner_stats["seq_scans"] > before["seq_scans"]

    def test_pk_point_lookup(self, s):
        rows = s.execute("SELECT name FROM t WHERE id = 42").rows
        assert rows == [("n42",)]

    def test_residual_predicate_still_applied(self, s):
        rows = s.execute("SELECT id FROM t WHERE grp = 4 AND val > 100").rows
        assert all(rid > 100 for (rid,) in rows)

    def test_join_with_pushdown(self, s):
        s.execute("CREATE TABLE u (id INT PRIMARY KEY, t_grp INT)")
        s.execute("INSERT INTO u VALUES (1, 4)")
        rows = s.execute(
            "SELECT COUNT(*) FROM u JOIN t ON t.grp = u.t_grp WHERE t.grp = 4"
        ).rows
        assert rows == [(20,)]

    def test_empty_probe(self, s):
        assert s.execute("SELECT * FROM t WHERE id = 99999").rows == []


class TestExplain:
    def test_explain_index_scan(self, s):
        result = s.execute("EXPLAIN SELECT * FROM t WHERE grp = 3")
        assert result.columns == ["QUERY PLAN"]
        assert "Index Scan using ix_grp on t" in result.rows[0][0]

    def test_explain_seq_scan(self, s):
        result = s.execute("EXPLAIN SELECT * FROM t WHERE val > 1")
        assert "Seq Scan on t" in result.rows[0][0]

    def test_explain_join_lists_both_tables(self, s):
        s.execute("CREATE TABLE u (a INT)")
        result = s.execute("EXPLAIN SELECT * FROM t JOIN u ON t.id = u.a")
        plans = "\n".join(r[0] for r in result.rows)
        assert "on t" in plans
        assert "on u" in plans

    def test_explain_does_not_execute(self, s):
        before = s.db.snapshot()
        s.execute("EXPLAIN SELECT * FROM t WHERE grp = 1")
        assert s.db.snapshot() == before

    def test_explain_requires_select_privilege(self, s):
        s.db.create_user("nobody")
        session = s.db.connect("nobody")
        with pytest.raises(Exception):
            session.execute("EXPLAIN SELECT * FROM t")

    def test_explain_no_base_tables(self, s):
        result = s.execute("EXPLAIN SELECT 1")
        assert "no base tables" in result.rows[0][0]

    def test_plan_select_paths_helper(self, s):
        stmt = parse("SELECT * FROM t WHERE grp = 2")
        plan = plan_select(stmt, s.db, s.db.catalog.table)
        (scan,) = plan.scans
        assert scan.kind == scan.path.kind == "index"
        assert scan.index is s.db.heap("t").indexes[scan.path.index_name]
        assert scan.key == (2,)
        assert "Index Scan" in scan.describe()


# ------------------------------------------- one plan: EXPLAIN == execution
#
# EXPLAIN renders the plan value the executor runs, so the node kinds it
# prints must be exactly what executing the statement counts in
# ``db.planner_stats`` — for child blocks (views, derived tables, set-op
# arms) as much as for plain tables.

from collections import Counter  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_range_scans import (  # noqa: E402
    build_statement,
    conjunct_column,
    limit_strategy,
    order_strategy,
    render_conjunct,
    where_strategy,
)

NODE_COUNTERS = (
    ("Seq Scan on", "seq_scans"),
    ("Index Scan using", "index_scans"),
    ("Index Range Scan using", "range_scans"),
    ("Index Union Scan using", "union_scans"),
    ("Ordered Index Scan using", "ordered_scans"),
    ("Hash Join", "hash_joins"),
    ("Nested Loop Join", "nested_loop_joins"),
)


def explained_kinds(lines):
    kinds = Counter()
    for line in lines:
        text = line.strip()
        for prefix, counter in NODE_COUNTERS:
            if text.startswith(prefix):
                kinds[counter] += 1
                if counter.endswith("_scans"):
                    kinds["batch_scans"] += 1  # every base-table scan
    return kinds


def executed_kinds(session, sql):
    stats = session.db.planner_stats
    before = dict(stats)
    session.execute(sql)
    return Counter(
        {
            name: value - before[name]
            for name, value in stats.items()
            if value != before[name] and name != "topn_limits"  # not a node
        }
    )


def drift_session():
    """The Motivation schema: t(id PK, a, b) with btree ix_a, u, view vw."""
    db = Database(owner="a")
    session = db.connect("a")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, c TEXT)")
    session.execute("CREATE TABLE u (id INT PRIMARY KEY, t_id INT, v INT)")
    for i in range(200):
        db.heap("t").insert({"id": i, "a": i % 10, "b": i % 7, "c": "xyz"[i % 3]})
        db.heap("u").insert({"id": i, "t_id": (i * 3) % 220, "v": i % 5})
    session.execute("CREATE INDEX ix_a ON t USING BTREE (a)")
    session.execute("CREATE INDEX ix_ab ON t USING BTREE (a, b)")
    session.execute("CREATE INDEX ix_v ON u (v)")
    session.execute("CREATE VIEW vw AS SELECT * FROM t WHERE a = 3")
    return session


# c is TEXT: integer comparisons against it would raise (see
# test_range_scans), so conjuncts bind a and b only — which also keeps
# unqualified names unambiguous next to u(id, t_id, v)
numeric_where = where_strategy.map(
    lambda conjuncts: [e for e in conjuncts if conjunct_column(e) != "c"]
)


def where_clause(conjuncts, qualifier=""):
    if not conjuncts:
        return ""
    return " WHERE " + " AND ".join(
        render_conjunct(e).replace(conjunct_column(e), qualifier + conjunct_column(e))
        for e in conjuncts
    )


@st.composite
def planned_statements(draw):
    shape = draw(
        st.sampled_from(
            ["table", "comma", "join", "view", "view-join", "derived",
             "derived-join", "set-op"]
        )
    )
    conjuncts = draw(numeric_where)
    where = where_clause(conjuncts)
    if shape == "comma":
        link = draw(st.sampled_from(["t.id = u.t_id", "t.id < u.t_id", "v = 1"]))
        return f"SELECT t.id, v FROM t, u{where}{' AND ' if where else ' WHERE '}{link}"
    if shape == "join":
        kind = draw(st.sampled_from(["JOIN", "LEFT JOIN", "RIGHT JOIN"]))
        on = draw(
            st.sampled_from(
                ["t.id = u.t_id", "t.a < u.v", "t.id = u.t_id AND u.v > t.a"]
            )
        )
        return f"SELECT t.id, u.v FROM t {kind} u ON {on}{where}"
    if shape == "view-join":
        return (
            "SELECT t.id FROM t JOIN vw ON t.id = vw.id"
            + where_clause(conjuncts, "t.")
        )
    if shape == "derived-join":
        return (
            f"SELECT * FROM u JOIN (SELECT id AS tid, a FROM t{where}) q "
            f"ON tid = t_id WHERE v = {draw(st.integers(0, 4))}"
        )
    if shape == "set-op":
        arm = build_statement(draw(numeric_where), None, None)
        op = draw(st.sampled_from(["UNION", "UNION ALL", "INTERSECT", "EXCEPT"]))
        return (
            f"{build_statement(conjuncts, None, None)} {op} "
            f"{arm.replace(' FROM t', ' FROM vw')}"
        )
    single = build_statement(conjuncts, draw(order_strategy), draw(limit_strategy))
    if shape == "view":
        return single.replace(" FROM t", " FROM vw")
    if shape == "derived":
        return f"SELECT q.id FROM ({single}) q WHERE q.a >= {draw(st.integers(0, 9))}"
    return single


_PARITY_SESSION = None


@settings(max_examples=150, deadline=None)
@given(sql=planned_statements())
def test_explain_prints_the_nodes_execution_counts(sql):
    global _PARITY_SESSION
    if _PARITY_SESSION is None:
        _PARITY_SESSION = drift_session()
    session = _PARITY_SESSION
    lines = [row[0] for row in session.execute("EXPLAIN " + sql).rows]
    assert explained_kinds(lines) == executed_kinds(session, sql), (sql, lines)


class TestExplainMatchesExecution:
    """The three drifts between EXPLAIN and execution measured before the
    plan value existed (ISSUE 12), pinned."""

    def test_derived_table_join_prints_the_hash_join_that_runs(self):
        s = drift_session()
        sql = (
            "SELECT * FROM u JOIN (SELECT id AS tid, a FROM t) q "
            "ON tid = t_id WHERE v = 3"
        )
        lines = [row[0] for row in s.execute("EXPLAIN " + sql).rows]
        # the derived table's columns are known, so ``v`` names u.v alone
        # and probes ix_v
        assert lines == [
            "Index Scan using ix_v on u (key: v) (filter: (v = 3))",
            "Subquery Scan on q",
            "  Seq Scan on t",
            "Hash Join (INNER) on q (keys: u.t_id = q.tid)",
        ]
        assert executed_kinds(s, sql)["hash_joins"] == 1
        analyzed = [row[0] for row in s.execute("EXPLAIN ANALYZE " + sql).rows]
        assert analyzed[3].startswith(lines[3] + " (actual rows=")

    def test_view_source_prints_the_scan_beneath_it(self):
        s = drift_session()
        lines = [
            row[0] for row in s.execute("EXPLAIN SELECT * FROM vw WHERE b = 2").rows
        ]
        assert lines == [
            "View Scan on vw",
            "  Index Scan using ix_a on t (key: a)",
        ]

    def test_analyze_keeps_same_binding_scans_on_separate_nodes(self):
        s = drift_session()
        lines = [
            row[0]
            for row in s.execute(
                "EXPLAIN ANALYZE SELECT * FROM t JOIN vw ON t.id = vw.id "
                "WHERE t.b = 1"
            ).rows
        ]
        assert lines[0].startswith("Seq Scan on t (filter: (t.b = 1)) (actual rows=29,")
        assert lines[1].startswith("View Scan on vw (actual rows=20,")
        assert lines[2].startswith(
            "  Index Scan using ix_a on t (key: a) (actual rows=20,"
        )
        assert lines[3].startswith("Hash Join (INNER) on vw (keys: t.id = vw.id)")
        assert not any("loops=" in line for line in lines)
