"""EXPLAIN ANALYZE: plan shape matches plain EXPLAIN, actual rows match
the statement's real cardinality, and the probe never leaks events."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minidb import Database


@pytest.fixture
def session():
    db = Database(owner="admin")
    s = db.connect("admin")
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    s.execute("CREATE TABLE u (id INT PRIMARY KEY, t_id INT)")
    s.execute("CREATE INDEX ix_t_v ON t USING BTREE (v)")
    for n in range(20):
        s.execute(f"INSERT INTO t VALUES ({n}, {n % 5})")
        s.execute(f"INSERT INTO u VALUES ({n}, {n})")
    return s


def plan_lines(session, sql):
    return [row[0] for row in session.execute(sql).rows]


def result_rows_line(lines):
    return next(int(line.split(":")[1]) for line in lines
                if line.startswith("Result rows:"))


class TestShape:
    def test_plain_explain_has_no_actuals(self, session):
        lines = plan_lines(session, "EXPLAIN SELECT v FROM t WHERE id = 1")
        assert lines == ["Index Scan using pk_t on t (key: id)"]

    def test_analyze_lines_extend_plain_plan(self, session):
        sql = "SELECT t.v FROM t JOIN u ON t.id = u.t_id WHERE u.id < 5"
        plain = plan_lines(session, "EXPLAIN " + sql)
        analyzed = plan_lines(session, "EXPLAIN ANALYZE " + sql)
        assert len(analyzed) == len(plain) + 2  # Result rows + Execution time
        for plain_line, analyzed_line in zip(plain, analyzed):
            assert analyzed_line.startswith(plain_line)
            assert "actual rows=" in analyzed_line
        assert analyzed[-2].startswith("Result rows:")
        assert analyzed[-1].startswith("Execution time:")

    def test_status_is_explain(self, session):
        result = session.execute("EXPLAIN ANALYZE SELECT v FROM t WHERE id = 1")
        assert result.status == "EXPLAIN"


class TestActualRows:
    def test_point_lookup(self, session):
        lines = plan_lines(session, "EXPLAIN ANALYZE SELECT v FROM t WHERE id = 1")
        assert "(actual rows=1," in lines[0]
        assert result_rows_line(lines) == 1

    def test_secondary_index_matches_cardinality(self, session):
        real = len(session.execute("SELECT id FROM t WHERE v = 3").rows)
        lines = plan_lines(session, "EXPLAIN ANALYZE SELECT id FROM t WHERE v = 3")
        assert f"(actual rows={real}," in lines[0]
        assert result_rows_line(lines) == real

    def test_join_rows_annotated_per_node(self, session):
        sql = "SELECT t.v FROM t JOIN u ON t.id = u.t_id WHERE u.id < 5"
        real = len(session.execute(sql).rows)
        lines = plan_lines(session, "EXPLAIN ANALYZE " + sql)
        seq_t = next(line for line in lines if line.startswith("Seq Scan on t"))
        seq_u = next(line for line in lines if line.startswith("Seq Scan on u"))
        join = next(line for line in lines if line.startswith("Hash Join"))
        assert "(actual rows=20," in seq_t  # build side scans everything
        assert "(actual rows=5," in seq_u  # filter pushed down
        assert f"(actual rows={real}," in join
        assert result_rows_line(lines) == real

    def test_ordered_scan_respects_limit(self, session):
        lines = plan_lines(
            session, "EXPLAIN ANALYZE SELECT id FROM t ORDER BY v LIMIT 4"
        )
        assert lines[0].startswith("Ordered Index Scan using ix_t_v")
        assert "(actual rows=4," in lines[0]
        assert result_rows_line(lines) == 4

    def test_system_view_scan(self, session):
        real = len(session.execute("SELECT name FROM system.metrics").rows)
        lines = plan_lines(
            session, "EXPLAIN ANALYZE SELECT name FROM system.metrics"
        )
        assert lines[0].startswith("System View Scan on system.metrics")
        assert f"(actual rows={real}," in lines[0]

    def test_no_base_tables(self, session):
        lines = plan_lines(session, "EXPLAIN ANALYZE SELECT 1 + 1")
        assert lines[0] == "Result (no base tables)"
        assert result_rows_line(lines) == 1


class TestProbeIsolation:
    def test_analyze_events_never_leak_into_outer_trace(self, session):
        db = session.db
        db.observability_options["tracing"] = True
        session.execute("EXPLAIN ANALYZE SELECT v FROM t WHERE id = 1")
        trace = db.tracer.recent()[-1]
        assert trace.sql.startswith("EXPLAIN ANALYZE")
        # the inner execution ran under a probe: its scan events belong to
        # the probe, not to the EXPLAIN statement's own trace
        assert trace.scans == []
        db.observability_options["tracing"] = False


# ----------------------------------------------------- hypothesis parity

_PARITY_DB: Database | None = None


def parity_session():
    global _PARITY_DB
    if _PARITY_DB is None:
        _PARITY_DB = Database(owner="admin")
        s = _PARITY_DB.connect("admin")
        s.execute("CREATE TABLE p (id INT PRIMARY KEY, a INT, b INT)")
        s.execute("CREATE INDEX ix_p_a ON p USING BTREE (a)")
        for n in range(30):
            s.execute(f"INSERT INTO p VALUES ({n}, {n % 7}, {(n * 3) % 11})")
    return _PARITY_DB.connect("admin")


comparisons = st.tuples(
    st.sampled_from(["id", "a", "b"]),
    st.sampled_from(["=", "<", ">", "<=", ">="]),
    st.integers(min_value=-2, max_value=32),
)


@st.composite
def select_statements(draw):
    sql = "SELECT id FROM p"
    conjuncts = draw(st.lists(comparisons, min_size=0, max_size=2))
    if conjuncts:
        sql += " WHERE " + " AND ".join(
            f"{col} {op} {value}" for col, op, value in conjuncts
        )
    if draw(st.booleans()):
        sql += f" ORDER BY {draw(st.sampled_from(['id', 'a', 'b']))}"
        if draw(st.booleans()):
            sql += f" LIMIT {draw(st.integers(min_value=0, max_value=40))}"
    return sql


@settings(max_examples=60, deadline=None)
@given(sql=select_statements())
def test_analyze_vs_execute_row_parity(sql):
    session = parity_session()
    real = len(session.execute(sql).rows)
    lines = [row[0] for row in session.execute("EXPLAIN ANALYZE " + sql).rows]
    reported = next(int(line.split(":")[1]) for line in lines
                    if line.startswith("Result rows:"))
    assert reported == real, f"{sql}: analyze reported {reported}, got {real}"
