"""The column-batch SELECT pipeline: kernels vs the interpreter.

Every SELECT block runs scan -> join -> filter -> group/project over
column batches; what varies is the expression engine and the batch size.
For every statement, batch kernels at any ``batch_size`` must match the
AST interpreter walking one row per batch byte for byte — including which
error is raised, and when. The Hypothesis property at the bottom drives
random data (NULLs, duplicates, text) through random statements (WHERE
with three-valued AND/OR, arithmetic, LIKE, IS NULL; aggregates; GROUP
BY/HAVING; DISTINCT; ORDER BY; LIMIT/OFFSET) over a table, a view, a
derived table and hash joins of two tables. The targeted tests pin the
deferred-error contract, the planner counter, tracer scan-event parity,
and the storage batch iterators.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minidb import Database
from repro.minidb.batch import DEFAULT_BATCH_SIZE, BatchError, RowBatch
from repro.minidb.errors import (
    DivisionByZeroError,
    ExecutionError,
    MiniDBError,
    UnknownColumnError,
)


@pytest.fixture
def s():
    db = Database(owner="a")
    session = db.connect("a")
    session.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, c TEXT)"
    )
    heap = db.heap("t")
    for i in range(50):
        heap.insert(
            {
                "id": i,
                "a": i % 7 if i % 11 else None,
                "b": (i * 3) % 10,
                "c": f"s{i % 5}" if i % 13 else None,
            }
        )
    return session


def both(session, sql):
    """Run ``sql`` on batch kernels at the session's ``batch_size`` and on
    the interpreter at ``batch_size=1`` — the reference leg shares no
    compiled kernel and no batch boundary with the first. Both must agree
    on (columns, rows) or on (error type, error message)."""
    options = session.db.planner_options
    size = options["batch_size"]
    outcomes = []
    for compiled, batch_size in ((True, size), (False, 1)):
        options["enable_compiled_predicates"] = compiled
        options["batch_size"] = batch_size
        try:
            result = session.execute(sql)
            outcomes.append(("ok", result.columns, result.rows))
        except MiniDBError as exc:
            outcomes.append(("err", type(exc).__name__, str(exc)))
    options["enable_compiled_predicates"] = True
    options["batch_size"] = size
    assert outcomes[0] == outcomes[1], sql
    return outcomes[0]


# ---------------------------------------------------------------- results


class TestEquivalence:
    def test_projection_filter(self, s):
        kind, _, rows = both(
            s, "SELECT id, a + b, c FROM t WHERE a >= 2 AND b < 8"
        )
        assert kind == "ok" and rows

    def test_star_projection(self, s):
        kind, columns, rows = both(s, "SELECT * FROM t WHERE b <> 4")
        assert kind == "ok" and columns == ["id", "a", "b", "c"] and rows

    def test_like_and_null_semantics(self, s):
        kind, _, rows = both(
            s, "SELECT id FROM t WHERE c LIKE 's%' AND a IS NOT NULL"
        )
        assert kind == "ok" and rows

    def test_grouped_aggregates(self, s):
        kind, _, rows = both(
            s,
            "SELECT b, COUNT(*), SUM(a), MIN(a), MAX(a), AVG(a) FROM t"
            " GROUP BY b ORDER BY b",
        )
        assert kind == "ok" and len(rows) == 10

    def test_ungrouped_aggregate(self, s):
        kind, _, rows = both(s, "SELECT COUNT(*), SUM(b) FROM t")
        assert kind == "ok" and len(rows) == 1

    def test_having_and_distinct(self, s):
        assert both(s, "SELECT DISTINCT a FROM t ORDER BY a")[0] == "ok"
        assert (
            both(s, "SELECT b, COUNT(*) FROM t GROUP BY b HAVING COUNT(*) > 4")[0]
            == "ok"
        )

    def test_order_by_alias_ordinal_and_expr(self, s):
        for sql in (
            "SELECT a + b AS x FROM t ORDER BY x, id LIMIT 7",
            "SELECT id, b FROM t ORDER BY 2 DESC LIMIT 5 OFFSET 3",
            "SELECT id FROM t WHERE b > 1 ORDER BY a * 2, id",
        ):
            assert both(s, sql)[0] == "ok"

    def test_case_in_between(self, s):
        kind, _, _ = both(
            s,
            "SELECT CASE WHEN a > 3 THEN 'hi' ELSE 'lo' END FROM t"
            " WHERE b IN (1, 2, 5) AND id BETWEEN 4 AND 40",
        )
        assert kind == "ok"

    def test_subquery_falls_back_per_row_inside_batch(self, s):
        s.execute("CREATE TABLE u (k INT PRIMARY KEY)")
        for k in (1, 3, 5):
            s.execute(f"INSERT INTO u (k) VALUES ({k})")
        kind, _, rows = both(
            s, "SELECT id FROM t WHERE a IN (SELECT k FROM u) ORDER BY id"
        )
        assert kind == "ok" and rows

    def test_custom_batch_size(self, s):
        s.db.planner_options["batch_size"] = 3
        try:
            kind, _, rows = both(
                s, "SELECT id, a FROM t WHERE b >= 2 ORDER BY id"
            )
            assert kind == "ok" and rows
        finally:
            s.db.planner_options["batch_size"] = DEFAULT_BATCH_SIZE

    def test_batched_under_interpreter_mode(self, s):
        # compiled predicates off at the default batch size: per-row
        # interpretation inside full batches agrees with both legs
        sql = "SELECT id FROM t WHERE a = 2 ORDER BY id"
        kind, _, rows = both(s, sql)
        assert kind == "ok" and rows
        s.db.planner_options["enable_compiled_predicates"] = False
        try:
            assert s.execute(sql).rows == rows
        finally:
            s.db.planner_options["enable_compiled_predicates"] = True

    def test_joins_views_and_derived_tables_share_the_pipeline(self, s):
        s.execute("CREATE TABLE u (k INT, w TEXT)")
        for k, w in [(1, "x"), (3, "y"), (3, None), (None, "z"), (9, "x")]:
            s.db.heap("u").insert({"k": k, "w": w})
        s.execute("CREATE VIEW vw AS SELECT id, a, b FROM t WHERE b > 2")
        for sql in (
            "SELECT t.id, u.w FROM t JOIN u ON t.a = u.k WHERE b < 7",
            "SELECT t.id, u.w FROM t LEFT JOIN u ON t.a = u.k AND u.w <> 'x'",
            "SELECT t.id, u.k FROM t RIGHT JOIN u ON t.a = u.k AND t.b > 4",
            "SELECT t.id, u.k FROM t JOIN u ON t.a < u.k AND t.id < 6",
            "SELECT u.w, COUNT(*), SUM(t.b) FROM t JOIN u ON t.a = u.k GROUP BY u.w",
            "SELECT a, COUNT(*) FROM vw GROUP BY a ORDER BY a",
            "SELECT d.a, d.n FROM (SELECT a, COUNT(*) AS n FROM t GROUP BY a) d"
            " WHERE d.n > 6 ORDER BY d.a",
            "SELECT u.k, d.n FROM u JOIN"
            " (SELECT a, COUNT(*) AS n FROM t GROUP BY a) d ON u.k = d.a",
        ):
            kind, _, rows = both(s, sql)
            assert kind == "ok" and rows, sql


# ----------------------------------------------------- deferred-error contract


class TestErrorContract:
    def test_short_circuit_skips_erroring_rows(self, s):
        # b is never NULL, so b < -1 is false on every row and the lazy
        # AND never evaluates the 1/0 conjunct: the batch plan must not
        # raise either (deferred errors are discarded for short-circuited
        # elements)
        kind, _, rows = both(
            s, "SELECT id FROM t WHERE b < -1 AND 1 / (b - b) > 0"
        )
        assert (kind, rows) == ("ok", [])
        # with a NULL left operand, NULL AND <error> must surface the
        # error — on both plans
        outcome = both(s, "SELECT id FROM t WHERE a < -1 AND 1 / (b - b) > 0")
        assert outcome[:2] == ("err", DivisionByZeroError.__name__)

    def test_error_raised_when_row_reaches_conjunct(self, s):
        outcome = both(s, "SELECT id FROM t WHERE b >= 0 AND 1 / (b - b) > 0")
        assert outcome[0] == "err"
        assert outcome[1] == DivisionByZeroError.__name__

    def test_where_error_beats_projection_error(self, s):
        # the WHERE type mismatch must surface, not the projection's
        # division by zero: filters run before projection in both plans
        outcome = both(s, "SELECT 1 / (b - b) FROM t WHERE c < 5")
        assert outcome[0] == "err"
        assert outcome[1] == ExecutionError.__name__

    def test_unknown_column_defers_until_a_row_is_scanned(self, s):
        s.execute("CREATE TABLE empty_t (x INT)")
        kind, _, rows = both(s, "SELECT x FROM empty_t WHERE nosuch = 1")
        assert (kind, rows) == ("ok", [])
        outcome = both(s, "SELECT id FROM t WHERE nosuch = 1")
        assert outcome[0] == "err"
        assert outcome[1] == UnknownColumnError.__name__

    def test_projection_error_parity(self, s):
        outcome = both(s, "SELECT 1 / a FROM t WHERE id = 45")
        # id 45 has a = 45 % 7 = 3: fine; id 7 has a = 0 but is filtered
        assert outcome[0] == "ok"
        outcome = both(s, "SELECT 1 / (a - a) FROM t WHERE id = 45")
        assert outcome[1] == DivisionByZeroError.__name__

    def test_first_projection_error_with_stored_columns_skipped(self, s):
        # the all-kernel projection looks for deferred errors only in the
        # columns that can hold one; a bare reference that resolves is the
        # relation's own list and is skipped, one that does not resolve is
        # a column of errors and must still raise — decided by what the
        # kernel returned, not by the item being a ColumnRef
        for sql, error in (
            ("SELECT nosuch FROM t", UnknownColumnError),
            ("SELECT a, nosuch FROM t", UnknownColumnError),
            ("SELECT a, 1 / 0 FROM t", DivisionByZeroError),
            ("SELECT id, a, 1 / (b - 3), c FROM t", DivisionByZeroError),
            # row 0 has b = 0: item 0 errs there, before item 1 does
            ("SELECT 1 / b, nosuch FROM t", DivisionByZeroError),
            ("SELECT nosuch, 1 / b FROM t", UnknownColumnError),
            # the first erroring row decides, whichever item it is in
            ("SELECT 1 / (id - 3), 1 / (id - 2), a FROM t", DivisionByZeroError),
        ):
            outcome = both(s, sql)
            assert outcome[:2] == ("err", error.__name__), sql
        kind, columns, rows = both(s, "SELECT a, id, a FROM t WHERE id < 3")
        assert (kind, columns) == ("ok", ["a", "id", "a"])
        assert rows == [(None, 0, None), (1, 1, 1), (2, 2, 2)]

    def test_aggregate_argument_error_parity(self, s):
        outcome = both(s, "SELECT SUM(c) FROM t")
        assert outcome[0] == "err"
        outcome = both(s, "SELECT b, SUM(1 / (a - a)) FROM t GROUP BY b")
        assert outcome[1] == DivisionByZeroError.__name__


# ------------------------------------------------- counters, EXPLAIN, tracing


class TestObservability:
    def test_batch_scans_counter(self, s):
        stats = s.db.planner_stats
        before = (stats["batch_scans"], stats["seq_scans"])
        s.execute("SELECT COUNT(*) FROM t WHERE b > 100")
        # every base-table scan of a SELECT bumps the access-path counter
        # and batch_scans
        assert stats["batch_scans"] == before[0] + 1
        assert stats["seq_scans"] == before[1] + 1
        # both sources of a join count; an UPDATE's target scan does not
        s.execute("CREATE TABLE u (k INT PRIMARY KEY)")
        s.execute("SELECT t.id FROM t JOIN u ON t.a = u.k")
        s.execute("UPDATE t SET b = 0 WHERE a = 3")
        assert stats["batch_scans"] == before[0] + 3

    def test_explain_analyze_actuals_follow_annotation(self, s):
        rows = s.execute(
            "EXPLAIN ANALYZE SELECT id FROM t WHERE b = 3"
        ).rows
        assert any(" (actual rows=" in line for (line,) in rows)

    def test_scan_event_parity(self, s):
        """Scans report identical binding/kind/rows/examined through the
        tracer on kernels and on the interpreter (timings aside)."""
        tracer = s.db.tracer
        events = {}
        for enabled in (True, False):
            s.db.planner_options["enable_compiled_predicates"] = enabled
            probe = tracer.probe()
            try:
                s.execute("SELECT id FROM t WHERE b > 5")
                s.execute("SELECT COUNT(*) FROM t WHERE id = 7")
            finally:
                tracer.release(probe)
            events[enabled] = [
                {k: e[k] for k in ("binding", "kind", "rows", "examined")}
                for e in probe.scans
            ]
        s.db.planner_options["enable_compiled_predicates"] = True
        assert events[True] == events[False]
        assert [e["kind"] for e in events[True]] == ["seq", "index"]


# ------------------------------------------------------------ storage batches


class TestStorageBatches:
    def test_rows_batch_slices(self, s):
        heap = s.db.heap("t")
        batches = list(heap.rows_batch(16, ["id", "a"]))
        assert [b.length for b in batches] == [16, 16, 16, 2]
        assert all(set(b.columns) == {"id", "a"} for b in batches)
        ids = [v for b in batches for v in b.columns["id"]]
        assert ids == sorted(ids) and len(ids) == 50
        rids = [rid for rid, _ in heap.rows()]
        assert batches[0].rids == rids[:16]

    def test_rows_batch_copies_are_snapshots(self, s):
        heap = s.db.heap("t")
        batch = next(heap.rows_batch(10, ["b"]))
        batch.columns["b"][0] = "mutated"
        assert heap.get(batch.rids[0])["b"] != "mutated"

    def test_fetch_batch_skips_missing_rids(self, s):
        heap = s.db.heap("t")
        rids = list(dict(heap.rows()).keys())[:3]
        batch = heap.fetch_batch([rids[0], 10**9, rids[2]], ["id"])
        assert batch.length == 2
        assert batch.rids == [rids[0], rids[2]]

    def test_row_batch_and_error_repr(self):
        err = BatchError(ExecutionError("boom"))
        assert "boom" in repr(err)
        batch = RowBatch([1, 2], {"x": [10, 20]}, 2)
        assert batch.length == 2 and batch.columns["x"] == [10, 20]


# ----------------------------------------------------------- property testing


values = st.one_of(st.none(), st.integers(min_value=-3, max_value=9))
texts = st.one_of(st.none(), st.sampled_from(["ab", "ba", "a%b", "s1", ""]))
rows_strategy = st.lists(st.tuples(values, values, texts), max_size=40)

PREDICATES = [
    "a > 2",
    "a = b",
    "a <> 3",
    "b IS NULL",
    "c IS NOT NULL",
    "a + b >= 4",
    "a * b < 6",
    "c LIKE 'a%'",
    "c LIKE '%b'",
    "a IN (1, 2, NULL)",
    "b BETWEEN 0 AND 5",
    "CASE WHEN a > b THEN 1 ELSE 0 END = 1",
]
where_strategy = st.one_of(
    st.none(),
    st.lists(st.sampled_from(PREDICATES), min_size=1, max_size=3).map(
        lambda ps: " AND ".join(ps)
    ),
    st.lists(st.sampled_from(PREDICATES), min_size=2, max_size=3).map(
        lambda ps: " OR ".join(ps)
    ),
)
SELECTS = [
    "id, a, b, c",
    "id, a + b AS x",
    "DISTINCT a, b",
    "COUNT(*), SUM(a), AVG(b)",
    "a, COUNT(*), MIN(b), MAX(c) GROUP BY a",
    "b, COUNT(*) GROUP BY b HAVING COUNT(*) > 1",
]
#: every source exposes id, a, b, c under those unqualified names (u's
#: columns are k, w), so each select list and predicate runs over each
SOURCES = [
    "t",
    "vw",
    "(SELECT id, a, b, c FROM t WHERE a IS NOT NULL) d",
    "t JOIN u ON t.a = u.k",
    "t LEFT JOIN u ON t.a = u.k AND u.w <> 'ab'",
    "u RIGHT JOIN t ON u.k = t.b",
    "t JOIN (SELECT k, COUNT(*) AS n FROM u GROUP BY k) d ON t.b = d.k",
]
order_strategy = st.sampled_from(
    [None, "ORDER BY 1", "ORDER BY a, id", "ORDER BY b DESC, id"]
)
limit_strategy = st.one_of(
    st.none(), st.tuples(st.integers(0, 10), st.integers(0, 3))
)


def build_statement(select, where, order, limit, source="t"):
    if "GROUP BY" in select:
        items, group = select.split(" GROUP BY", 1)
        sql = f"SELECT {items} FROM {source}"
        if where:
            sql += f" WHERE {where}"
        sql += " GROUP BY" + group
        sql += " ORDER BY 1"  # aggregate outputs: positional order only
    else:
        sql = f"SELECT {select} FROM {source}"
        if where:
            sql += f" WHERE {where}"
        if "COUNT" in select:
            order = None
        if order:
            sql += f" {order}"
    if limit is not None:
        count, offset = limit
        sql += f" LIMIT {count}"
        if offset:
            sql += f" OFFSET {offset}"
    return sql


@settings(max_examples=60, deadline=None)
@given(
    rows=rows_strategy,
    u_rows=st.lists(st.tuples(values, texts), max_size=8),
    statements=st.lists(
        st.tuples(
            st.sampled_from(SELECTS), where_strategy, order_strategy,
            limit_strategy, st.sampled_from(SOURCES),
        ),
        min_size=1,
        max_size=4,
    ),
    batch_size=st.sampled_from([1, 2, 7, DEFAULT_BATCH_SIZE]),
)
def test_batched_execution_equivalent_to_row_plan(
    rows, u_rows, statements, batch_size
):
    """Random data + random statements: kernels at the drawn batch size
    must match the interpreter walking one row per batch byte for byte —
    results, column names, and raised errors — whether the block reads a
    table, a view, a derived table or a join."""
    db = Database(owner="a")
    session = db.connect("a")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, c TEXT)")
    session.execute("CREATE TABLE u (k INT, w TEXT)")
    session.execute("CREATE VIEW vw AS SELECT id, a, b, c FROM t WHERE b IS NOT NULL")
    for i, (a, b, c) in enumerate(rows):
        db.heap("t").insert({"id": i, "a": a, "b": b, "c": c})
    for k, w in u_rows:
        db.heap("u").insert({"k": k, "w": w})
    db.planner_options["batch_size"] = batch_size
    for select, where, order, limit, source in statements:
        both(session, build_statement(select, where, order, limit, source))
