"""Two expression engines: batch kernels at every compiled predicate site,
the AST interpreter as the reference.

The interpreting executor (``interpreter_leg.InterpretingExecutor``) runs
the interpreter at every site (WHERE, the hash-join residual, the ordered
scan, pushed-down conjuncts, UPDATE/DELETE target filtering), so each test
here runs a statement under both engines and requires the same outcome.
One Hypothesis property covers DML target filtering, another the typed
(type-uniform batch) paths of the
comparison, BETWEEN and AND/OR kernels, the WHERE selector, ORDER BY /
top-N and GROUP BY; the targeted tests pin the behaviours a row-at-a-time
executor has by construction: the ordered scan's early exit, the pushed-down
conjunct's keep-on-``ExecutionError`` rule, the hash-join residual's error
order and NULL extension, and the rid order of DML targets in the WAL.
"""

import json
import random
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from interpreter_leg import use_engine

from repro.minidb import Database
from repro.minidb.batch import DEFAULT_BATCH_SIZE
from repro.minidb.errors import (
    DivisionByZeroError,
    ExecutionError,
    MiniDBError,
    TypeMismatchError,
)
from repro.minidb.executor import _descending_key_element, _sort_keys
from repro.minidb.storage import ordering_key_element


def outcome(session, sql, errors=MiniDBError):
    try:
        result = session.execute(sql)
        return ("ok", result.status, result.columns, result.rows)
    except errors as exc:
        return ("err", type(exc).__name__, str(exc))


def both_engines(session, sql, errors=MiniDBError):
    """Run ``sql`` on kernels and on the interpreter; both must agree on
    the result or on (error type, error message). Compared by ``repr``, so
    ``-0.0`` against ``0.0`` or a float sum that differs in its last bit
    counts as a difference. Only ``errors`` count as an outcome; anything
    else fails the test."""
    outcomes = []
    for compiled in (True, False):
        use_engine(session.db, compiled)
        outcomes.append(outcome(session, sql, errors))
    use_engine(session.db, True)
    assert repr(outcomes[0]) == repr(outcomes[1]), sql
    return outcomes[0]


# ------------------------------------------------------ DML target filtering

values = st.one_of(st.none(), st.integers(min_value=-2, max_value=6))
texts = st.one_of(st.none(), st.sampled_from(["ab", "ba", "7", ""]))
rows_strategy = st.lists(st.tuples(values, values, texts), max_size=30)

DML_PREDICATES = [
    "a > 2",
    "a = b",
    "b IS NULL",
    "a + b >= 4",
    "c LIKE 'a%'",
    "a IN (1, 2, NULL)",
    "a IN (0, 3, 5)",
    "b BETWEEN 0 AND 4",
    "CASE WHEN a > b THEN 1 ELSE 0 END = 1",
    "a >= 1 AND a < 4",
    "6 / a > 1",  # division by zero on a = 0
    "a < c",  # INT vs TEXT ordering: ExecutionError
    "CAST(c AS INT) > 3",  # TypeMismatchError on non-numeric text
    "a IN (SELECT b FROM t)",  # not compilable: interpreter on both sides
]
dml_where = st.one_of(
    st.none(),
    st.lists(st.sampled_from(DML_PREDICATES), min_size=1, max_size=3).map(
        " AND ".join
    ),
    st.lists(st.sampled_from(DML_PREDICATES), min_size=2, max_size=3).map(
        " OR ".join
    ),
)
dml_statement = st.tuples(
    st.sampled_from(["UPDATE t SET b = b + 1, c = 'hit'", "DELETE FROM t"]),
    dml_where,
).map(lambda pair: pair[0] + (f" WHERE {pair[1]}" if pair[1] else ""))


def dml_database(rows, index, compiled, batch_size):
    db = Database(owner="a")
    session = db.connect("a")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, c TEXT)")
    if index:
        session.execute(f"CREATE INDEX ix_a ON t USING {index} (a)")
    heap = db.heap("t")
    for i, (a, b, c) in enumerate(rows):
        heap.insert({"id": i, "a": a, "b": b, "c": c})
    use_engine(db, compiled)
    db.planner_options["batch_size"] = batch_size
    return db, session


@settings(max_examples=80, deadline=None)
@given(
    rows=rows_strategy,
    statements=st.lists(dml_statement, min_size=1, max_size=3),
    index=st.sampled_from([None, "HASH", "BTREE"]),
    batch_size=st.sampled_from([1, 2, 7, DEFAULT_BATCH_SIZE]),
)
def test_dml_targets_kernels_equivalent_to_interpreter(
    rows, statements, index, batch_size
):
    """UPDATE/DELETE with a generated WHERE: kernels and the interpreter
    change the same rows, leave the same table, raise the same error."""
    kernel_db, kernels = dml_database(rows, index, True, batch_size)
    reference_db, reference = dml_database(rows, index, False, batch_size)
    for sql in statements:
        assert outcome(kernels, sql) == outcome(reference, sql), sql
        assert kernel_db.snapshot() == reference_db.snapshot(), sql


# ------------------------------------------------------------- typed paths
#
# Comparisons and BETWEEN against a constant, AND/OR over bool vectors, the
# WHERE selector, ungrouped ORDER BY / top-N and GROUP BY folds each take a
# C-speed path only on a batch whose values all fall in one class. The
# columns below are drawn type-uniform, then a few cells are overwritten
# with the values that must push a batch off that path: NULL, a bool among
# ints, text among numbers, NaN, -0.0 beside 0.0, ints beyond 2**53 beside
# floats. Small value pools make ties. NaN is also drawn into float columns
# as an ordinary value: such a column is still all-float, and only the
# NaN check keeps it off the reversed sort of a DESC key.

UNIFORM = {
    "int": st.integers(min_value=-3, max_value=3),
    "float": st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, 2.5, 2.0**53, float("nan")]),
    "text": st.sampled_from(["", "a", "ab", "b", "B"]),
}
PERTURBATIONS = [None, True, False, "7", float("nan"), -0.0, 0.0, 2**53 + 1, 2**53, 1.5]

NUMBER_CONSTANTS = ["2", "2.5", "0", "-0.0", "TRUE", "9007199254740993"]
TEXT_CONSTANTS = ["'b'", "''", "'ab'"]
#: a column's own class six times over: most comparisons are well typed,
#: the rest raise (orderings) or are constant (= and <>) on both engines
CONSTANTS = {
    "number": NUMBER_CONSTANTS * 6 + TEXT_CONSTANTS + ["NULL"],
    "text": TEXT_CONSTANTS * 6 + NUMBER_CONSTANTS + ["NULL"],
}
COMPARISONS = ["=", "<>", "<", "<=", ">", ">="]
COLUMNS = ["v", "w", "s"]
ORDER_KEYS = [
    "v", "v DESC", "w", "w DESC", "s DESC", "v DESC, w", "w, s DESC", "2 DESC",
    # several keys, mixed directions: a numeric DESC key negates its values
    "w DESC, v DESC", "v DESC, w DESC, id", "s, w DESC", "w DESC, s DESC, id DESC",
]
AGGREGATES = "COUNT(*), COUNT(w), SUM(w), AVG(w), MIN(w), MAX(w), COUNT(DISTINCT w)"


@st.composite
def typed_case(draw):
    """Rows of ``t(id, v, w, s)`` — ``v`` int, float or text, ``w`` int or
    float, ``s`` text, at most two cells perturbed — and statements whose
    constants mostly match the class their column was drawn in."""
    n = draw(st.integers(min_value=0, max_value=24))
    kinds = {
        "v": draw(st.sampled_from(["int", "float", "text"])),
        "w": draw(st.sampled_from(["int", "float"])),
        "s": "text",
    }
    columns = {
        name: draw(st.lists(UNIFORM[kind], min_size=n, max_size=n))
        for name, kind in kinds.items()
    }
    for _ in range(draw(st.integers(min_value=0, max_value=2 if n else 0))):
        row = draw(st.integers(min_value=0, max_value=n - 1))
        columns[draw(st.sampled_from(COLUMNS))][row] = draw(
            st.sampled_from(PERTURBATIONS)
        )
    rows = [dict(id=i, **{c: columns[c][i] for c in COLUMNS}) for i in range(n)]

    def constant(column):
        pool = CONSTANTS["text" if kinds[column] == "text" else "number"]
        return draw(st.sampled_from(pool))

    def atom():
        column = draw(st.sampled_from(COLUMNS))
        if draw(st.booleans()):
            op, value = draw(st.sampled_from(COMPARISONS)), constant(column)
            if draw(st.booleans()):
                return f"{value} {op} {column}"
            return f"{column} {op} {value}"
        negated = "NOT " if draw(st.booleans()) else ""
        return f"{column} {negated}BETWEEN {constant(column)} AND {constant(column)}"

    def predicate():
        shape = draw(st.sampled_from(["atom", "AND", "OR", "AND-OR"]))
        if shape == "atom":
            return atom()
        if shape == "AND-OR":
            return f"{atom()} AND {atom()} OR {atom()}"
        return f" {shape} ".join(atom() for _ in range(draw(st.integers(2, 3))))

    def statement():
        shape = draw(st.integers(min_value=0, max_value=5))
        if shape == 0:
            return f"SELECT id FROM t WHERE {predicate()}"
        if shape == 1:  # top-N: k in 0, 1, n-1, n, n+5
            where = f" WHERE {predicate()}" if draw(st.booleans()) else ""
            limit = max(0, draw(st.sampled_from([0, 1, n - 1, n, n + 5])))
            offset = draw(st.sampled_from(["", " OFFSET 1", " OFFSET 3"]))
            key = draw(st.sampled_from(ORDER_KEYS))
            return f"SELECT id, v, w FROM t{where} ORDER BY {key} LIMIT {limit}{offset}"
        if shape == 2:
            return f"SELECT id, s FROM t ORDER BY {draw(st.sampled_from(ORDER_KEYS))}"
        if shape == 3:
            column = draw(st.sampled_from(COLUMNS))
            return f"SELECT {column}, {AGGREGATES} FROM t GROUP BY {column}"
        if shape == 4:
            return draw(st.sampled_from(
                [f"SELECT {AGGREGATES} FROM t", "SELECT MIN(v), MAX(v) FROM t"]
            ))
        return (
            f"SELECT v, COUNT(*), SUM(w), MAX(w) FROM t WHERE {predicate()} GROUP BY v"
        )

    return rows, [statement() for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=300, deadline=None)
@seed(20251015)
@given(case=typed_case(), batch_size=st.sampled_from([1, 7, DEFAULT_BATCH_SIZE]))
def test_typed_paths_equivalent_to_interpreter(case, batch_size):
    """Kernels and the interpreter agree — rows, row order, float bits,
    error class and message — on the statements the typed paths serve,
    whether the batch they see is uniform or perturbed."""
    rows, statements = case
    db = Database(owner="a")
    session = db.connect("a")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, w REAL, s TEXT)")
    heap = db.heap("t")
    for row in rows:
        heap.insert(row)
    db.planner_options["batch_size"] = batch_size
    for sql in statements:
        # MIN/MAX over text beside a number (planted by a heap insert that
        # skips coercion) raises Python's TypeError; both engines must
        # still raise it alike
        both_engines(session, sql, errors=(MiniDBError, TypeError))


#: values whose ORDER BY keys the typed sort path must order exactly as the
#: ``_Reversed`` key path does: ties (1 / 1.0 / TRUE, -0.0 / 0.0 / 0),
#: ints beyond 2**53 beside their float, NaN, infinity, NULL, text
SORT_VALUES = [
    0, 1, -1, 2, 2**53, 2**53 + 1, -(2**60), True, False,
    0.0, -0.0, 1.0, 1.5, -2.5, float(2**53), float("inf"), float("nan"),
    None, "", "a", "b",
]
SORT_POOLS = {
    "int": [v for v in SORT_VALUES if type(v) is int],
    "number": [v for v in SORT_VALUES if type(v) in (int, float)],
    "float": [v for v in SORT_VALUES if type(v) is float and v == v],
    "text": [v for v in SORT_VALUES if type(v) is str],
    "any": SORT_VALUES,
}


@st.composite
def sort_case(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        pool = SORT_POOLS[draw(st.sampled_from(sorted(SORT_POOLS)))]
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        # the fact a column may arrive with: none, its own, or a wider one
        fact = draw(st.sampled_from([
            None, frozenset(map(type, values)), frozenset(map(type, values)) | {str},
        ]))
        columns.append((values, draw(st.booleans()), fact))
    return columns, draw(st.sampled_from([None, 0, 1, 3, n]))


@settings(max_examples=400, deadline=None)
@seed(20261018)
@given(case=sort_case())
def test_sort_keys_order_as_the_reversed_key_path(case):
    """``_sort_keys`` (own-key columns as they are, numeric DESC keys
    negated) orders rows — and cuts a top-N — exactly as mapping
    ``ordering_key_element``, wrapped in ``_Reversed`` for DESC, over every
    key column does, whatever fact each column arrives with."""
    columns, needed = case
    n = len(columns[0][0])
    keys, reverse = _sort_keys(columns)
    got = Database(owner="a").executor._ordered_indexes(keys, reverse, needed)

    def reference(i):
        return tuple(
            (_descending_key_element if descending else ordering_key_element)(
                values[i]
            )
            for values, descending, _ in columns
        )

    expected = sorted(range(n), key=reference)
    assert got == (expected if needed is None else expected[:needed])


# ------------------------------------------------------------- class facts
#
# A stored column's class fact (and the all-bool fact of a typed kernel's
# output) decides the typed paths; only a vector whose fact is unknown or
# straddles the class is scanned for its types — one ``issuperset`` pass.
# Counting those calls stands in for a timing: over NOT NULL columns the
# benchmark's statement shapes make none, at any size.

FACT_SHAPES = {
    "filter": (
        "SELECT id, x FROM l WHERE d BETWEEN 10 AND 100 AND x < 150 AND kind <> 's'"
    ),
    "aggregate": (
        "SELECT kind, COUNT(*), AVG(x), SUM(x), MAX(d) FROM l WHERE d >= 100"
        " GROUP BY kind ORDER BY kind"
    ),
    "join": (
        "SELECT r.g, COUNT(*), AVG(l.x) FROM l JOIN r ON r.id = l.k"
        " WHERE l.d < 200 GROUP BY r.g ORDER BY r.g"
    ),
    "top-N": "SELECT id, d FROM l ORDER BY d DESC, id LIMIT 5",
    "filter without x": "SELECT id FROM l WHERE d BETWEEN 10 AND 100 AND kind <> 's'",
}


def fact_tables(rows):
    db = Database(owner="a")
    session = db.connect("a")
    session.execute("CREATE TABLE r (id INT PRIMARY KEY, g TEXT NOT NULL)")
    session.execute(
        "CREATE TABLE l (id INT PRIMARY KEY, k INT NOT NULL, x REAL NOT NULL,"
        " d INT NOT NULL, kind TEXT NOT NULL)"
    )
    rng = random.Random(rows)
    for i in range(50):
        db.heap("r").insert({"id": i, "g": f"g{i % 7}"})
    heap = db.heap("l")
    for i in range(rows):
        heap.insert({
            "id": i, "k": rng.randrange(60), "x": rng.random() * 200,
            "d": rng.randrange(365), "kind": rng.choice("abcs"),
        })
    return db, session


def class_passes(session, sql):
    """The ``issuperset`` class passes one run of ``sql`` makes (after a
    first run has prepared its plan)."""
    session.execute(sql)
    calls = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "issuperset":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        session.execute(sql)
    finally:
        sys.setprofile(None)
    return len(calls)


@pytest.mark.parametrize("rows", [100, 10_000])
def test_not_null_columns_need_no_class_pass(rows):
    _, session = fact_tables(rows)
    for name, sql in FACT_SHAPES.items():
        assert class_passes(session, sql) == 0, name


@pytest.mark.parametrize("rows", [100, 10_000])
def test_a_planted_null_sends_only_its_columns_sites_to_a_pass(rows):
    """A NULL in ``x`` (a raw insert: it skips NOT NULL) widens ``x``'s
    fact alone: the fold sites over ``x`` scan it once each (AVG and SUM
    in the aggregate, AVG in the join), the filter's comparison on ``x``
    scans its batches, and no site over another column scans anything.
    Rows equal the interpreter leg's."""
    db, session = fact_tables(rows)
    db.heap("l").insert({"id": rows, "k": 1, "x": None, "d": 50, "kind": "a"})
    passes = {name: class_passes(session, sql) for name, sql in FACT_SHAPES.items()}
    assert passes["aggregate"] == 2
    assert passes["join"] == 1
    assert passes["filter"] >= 1
    assert passes["top-N"] == passes["filter without x"] == 0
    for sql in FACT_SHAPES.values():
        both_engines(session, sql)


def test_group_by_a_null_key_groups_by_value():
    """A LEFT join's unmatched rows group under one NULL key beside the
    matched keys' one class: the one-key typed grouping, no per-row
    ``_row_marker``; rows and group order as the interpreter's."""
    db = Database(owner="a")
    session = db.connect("a")
    session.execute("CREATE TABLE l (id INT PRIMARY KEY, k INT)")
    session.execute("CREATE TABLE r (id INT PRIMARY KEY, g TEXT)")
    for i in range(8):
        session.execute(f"INSERT INTO r VALUES ({i}, 'g{i % 3}')")
    for i in range(60):
        session.execute(f"INSERT INTO l VALUES ({i}, {(i * 7) % 10})")
    sql = "SELECT r.g, COUNT(*) FROM l LEFT JOIN r ON l.k = r.id GROUP BY r.g"
    assert both_engines(session, sql)[3] == [("g0", 18), ("g1", 18), (None, 12), ("g2", 12)]
    markers = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "_row_marker":
            markers.append(frame)

    sys.setprofile(profile)
    try:
        session.execute(sql)
    finally:
        sys.setprofile(None)
    assert not markers


# ----------------------------------------------------------- ordered scan


@pytest.fixture
def ordered():
    db = Database(owner="a")
    session = db.connect("a")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, d INT)")
    session.execute("CREATE INDEX ix_v ON t USING BTREE (v)")
    # d in v order: 1, 0, 1, 0, 0, 1, then the poisoned row; POISONED keeps
    # d = 1, filters out d = 0 and divides by zero on d = 5
    session.execute(
        "INSERT INTO t VALUES (1,10,1),(2,20,0),(3,30,1),(4,40,0),(5,50,0),"
        "(6,60,1),(7,70,5),(8,80,1),(9,90,1)"
    )
    db.observability_options["tracing"] = True
    return session


def last_scan(session):
    return session.db.tracer.recent()[-1].scans[0]


POISONED = "SELECT id FROM t WHERE d = 1 OR 1 / (d - 5) > 0 ORDER BY v LIMIT 3"


class TestOrderedScanEarlyExit:
    def test_error_past_the_exit_is_never_raised(self, ordered):
        before = ordered.db.planner_stats["ordered_scans"]
        result = both_engines(ordered, POISONED)
        assert result[3] == [(1,), (3,), (6,)]
        assert ordered.db.planner_stats["ordered_scans"] == before + 2
        # without the early exit the seventh row does raise
        with pytest.raises(DivisionByZeroError):
            ordered.execute(POISONED.replace("LIMIT 3", "LIMIT 4"))

    @pytest.mark.parametrize("batch_size", [1, 2, 7, DEFAULT_BATCH_SIZE])
    def test_examined_counts_consumed_rows_only(self, ordered, batch_size):
        options = ordered.db.planner_options
        options["batch_size"] = batch_size
        use_engine(ordered.db, False)
        ordered.execute(POISONED)
        row_at_a_time = last_scan(ordered)
        use_engine(ordered.db, True)
        ordered.execute(POISONED)
        chunked = last_scan(ordered)
        # the third survivor is the sixth row in index order
        assert row_at_a_time["examined"] == 6
        assert chunked["examined"] <= row_at_a_time["examined"]
        assert chunked["rows"] == row_at_a_time["rows"] == 3
        assert chunked["kind"] == "ordered"

    def test_limit_reached_on_first_chunk_examines_limit_rows(self, ordered):
        ordered.execute("SELECT id FROM t WHERE d >= 0 ORDER BY v LIMIT 2")
        assert last_scan(ordered)["examined"] == 2
        ordered.execute("SELECT id FROM t WHERE d >= 0 ORDER BY v LIMIT 0")
        assert last_scan(ordered)["examined"] == 0

    def test_exhausted_scan_examines_every_row(self, ordered):
        result = both_engines(
            ordered, "SELECT id FROM t WHERE d = 0 ORDER BY v LIMIT 5"
        )
        assert result[3] == [(2,), (4,), (5,)]
        assert last_scan(ordered)["examined"] == 9


# -------------------------------------------------------------- prefilter


class TestPrefilterErrors:
    """Pushed-down conjuncts run inside the scan of a join's source: one
    that raises an ``ExecutionError`` keeps its row for the final WHERE,
    any other error propagates."""

    @pytest.fixture(params=[True, False])
    def joined(self, request):
        db = Database(owner="a")
        session = db.connect("a")
        session.execute("CREATE TABLE l (k INT, c TEXT, n INT)")
        session.execute("CREATE TABLE r (k INT)")
        # heap inserts skip coercion: n = 'x' makes ``n > 1`` raise
        for k, c, n in [(1, "1", 1), (2, "abc", 2), (3, "3", "x")]:
            db.heap("l").insert({"k": k, "c": c, "n": n})
        session.execute("INSERT INTO r VALUES (2)")
        use_engine(db, request.param)
        db.observability_options["tracing"] = True
        return session

    def test_execution_error_keeps_the_row(self, joined):
        sql = "SELECT l.k FROM l JOIN r ON l.k = r.k WHERE l.n > 1"
        assert "filter: (l.n > 1)" in joined.execute("EXPLAIN " + sql).rows[0][0]
        # 'x' > 1 raises ExecutionError in l's scan: the row is kept for
        # the final WHERE to judge, and never reaches it (no partner in r)
        assert joined.execute(sql).rows == [(2,)]
        scan = joined.db.tracer.recent()[-1].scans[0]
        assert (scan["binding"], scan["examined"], scan["rows"]) == ("l", 3, 2)

    def test_other_errors_propagate(self, joined):
        assert not issubclass(TypeMismatchError, ExecutionError)
        with pytest.raises(TypeMismatchError, match="'abc'"):
            joined.execute(
                "SELECT l.k FROM l JOIN r ON l.k = r.k "
                "WHERE l.n > 1 AND CAST(l.c AS INT) > 0"
            )

    def test_deferred_error_raises_only_if_the_row_survives_the_join(self):
        db = Database(owner="a")
        session = db.connect("a")
        session.execute("CREATE TABLE l (k INT, v INT)")
        session.execute("CREATE TABLE r (k INT)")
        session.execute("INSERT INTO l VALUES (1, 5), (2, 6)")
        session.execute("INSERT INTO r VALUES (7)")
        sql = "SELECT l.v FROM l JOIN r ON l.k = r.k WHERE l.v < 'zzz'"
        assert both_engines(session, sql)[3] == []
        session.execute("INSERT INTO r VALUES (2)")
        assert both_engines(session, sql)[1] == "ExecutionError"


# ------------------------------------------------------ hash-join residual


@pytest.fixture
def pairs():
    db = Database(owner="a")
    session = db.connect("a")
    session.execute("CREATE TABLE l (id INT PRIMARY KEY, k INT, d INT)")
    session.execute("CREATE TABLE r (id INT PRIMARY KEY, k INT, tag TEXT)")
    session.execute("INSERT INTO l VALUES (1, 1, 5), (2, 2, 5), (3, 3, 5)")
    # right-table order puts the k = 2 row first; probe order reaches the
    # k = 1 rows first
    session.execute(
        "INSERT INTO r VALUES (10, 2, 'x2'), (11, 1, '9'), (12, 1, 'x1'),"
        " (13, 3, '1'), (14, 4, 'x4')"
    )
    return session


RESIDUAL = (
    "SELECT l.id, r.id FROM l {kind} JOIN r "
    "ON l.k = r.k AND CAST(r.tag AS INT) > l.d"
)


class TestHashJoinResidual:
    @pytest.mark.parametrize("kind", ["INNER", "LEFT", "RIGHT"])
    def test_first_erroring_pair_in_probe_order_raises(self, pairs, kind):
        before = pairs.db.planner_stats["hash_joins"]
        result = both_engines(pairs, RESIDUAL.format(kind=kind))
        assert pairs.db.planner_stats["hash_joins"] == before + 2
        # (l1, r11) passes, (l1, r12) errors before (l2, r10) is reached
        assert result[:2] == ("err", "TypeMismatchError")
        assert "'x1'" in result[2]

    @pytest.mark.parametrize("batch_size", [1, 2, 7, DEFAULT_BATCH_SIZE])
    def test_null_extension_decided_after_the_residual(self, pairs, batch_size):
        pairs.db.planner_options["batch_size"] = batch_size
        pairs.execute("DELETE FROM r WHERE id IN (10, 12, 14)")
        pairs.execute("INSERT INTO r VALUES (15, 5, '0')")
        # survivors of the equi-key: (l1, r11) passes the residual,
        # (l3, r13) fails it
        left = both_engines(pairs, RESIDUAL.format(kind="LEFT"))
        assert left[3] == [(1, 11), (2, None), (3, None)]
        right = both_engines(pairs, RESIDUAL.format(kind="RIGHT"))
        assert right[3] == [(1, 11), (None, 13), (None, 15)]
        inner = both_engines(pairs, RESIDUAL.format(kind="INNER"))
        assert inner[3] == [(1, 11)]
        # and the nested-loop plan agrees: the equi-key spelled
        # NOT (l.k <> r.k) is a residual, not a hash key
        for kind, rows in (("LEFT", left[3]), ("RIGHT", right[3]), ("INNER", inner[3])):
            looped = RESIDUAL.format(kind=kind).replace("l.k = r.k", "NOT (l.k <> r.k)")
            plan = [line for (line,) in pairs.execute("EXPLAIN " + looped).rows]
            assert not any("Hash Join" in line for line in plan), plan
            assert pairs.execute(looped).rows == rows


# ----------------------------------------------------------- DML target order


@pytest.mark.parametrize("compiled", [True, False])
@pytest.mark.parametrize("index", [None, "HASH", "BTREE"])
def test_multi_row_update_logs_targets_in_rid_order(tmp_path, compiled, index):
    db = Database.open(str(tmp_path / "db"))
    session = db.connect("admin")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT)")
    if index:
        session.execute(f"CREATE INDEX ix_k ON t USING {index} (k)")
    session.execute(
        "INSERT INTO t VALUES (1,5,0),(2,3,0),(3,9,0),(4,1,0),(5,3,0),(6,7,0)"
    )
    use_engine(db, compiled)
    db.planner_options["batch_size"] = 2
    session.execute("UPDATE t SET v = v + 1 WHERE k IN (7, 3, 1, 5) AND id <> 1")
    with open(db.engine.wal_path, encoding="utf-8") as fh:
        updates = [
            record
            for record in map(json.loads, fh)
            if record.get("op") == "update"
        ]
    rids = [record["rid"] for record in updates]
    assert rids == sorted(rids) and len(rids) == 4
    assert [record["row"]["id"] for record in updates] == [2, 4, 5, 6]
    db.close()
