"""Differential oracle: minidb SELECT results cross-checked against sqlite3.

Every other equivalence suite compares minidb with itself (kernels vs the
interpreter, hash vs nested-loop joins, index vs sequential scans), and the
compared legs share scalar helpers by design — a wrong NULL rule or join
extension is invisible to all of them. This suite shares no code with
minidb: Hypothesis draws data for ``t(id, a, b, c)``, ``u(id, a, d)`` and a
view ``v`` over ``t`` (NULLs, duplicates, empty strings, empty tables),
draws statements from :data:`SHAPES` x :data:`PREDICATES`, runs each on
minidb and on the standard library's sqlite3, and compares result
multisets (ordered lists where the statement's ORDER BY is total). In a
share of examples ``t.a`` / ``t.b`` are drawn without NULLs, and only
there :data:`NULL_FREE_SHAPES` — ORDER BY ``a`` + LIMIT and GROUP BY
``a`` — join the draw: their all-int columns are what minidb's typed
kernels (top-N over key columns, one-column grouping, C folds) run on.

The statement space is the documented intersection of the two dialects.
Where they deliberately differ the generator stays out, and each such
exclusion is one row of :data:`EXCLUSIONS` — with a witness statement that
:func:`test_exclusions_are_real_divergences` runs, so a row that stops
diverging (or an oracle that stops noticing) fails instead of rotting.
"""

import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minidb import Database
from repro.minidb.batch import DEFAULT_BATCH_SIZE
from repro.minidb.errors import MiniDBError

#: (what the generator never emits, why the engines differ, a witness
#: statement over the fixed rows of :func:`witness_engines` — ``None``
#: where the difference is sqlite's version, not its semantics)
EXCLUSIONS = [
    (
        "ORDER BY + LIMIT over a key drawn with NULLs (NULL-free draws of "
        "t.a emit it: NULL_FREE_SHAPES)",
        "minidb sorts NULLS LAST in both directions (PostgreSQL's ASC "
        "default); sqlite sorts NULLs first ascending",
        "SELECT a FROM t ORDER BY a LIMIT 1",
    ),
    (
        "ordering comparison between INT and TEXT",
        "minidb raises (no implicit cast, like PostgreSQL); sqlite's type "
        "affinity orders every INTEGER before every TEXT",
        "SELECT id FROM t WHERE a < c",
    ),
    (
        "division or modulo by zero",
        "minidb raises DivisionByZeroError (PostgreSQL); sqlite yields NULL",
        "SELECT 1 / (a - a) FROM t WHERE a = 1",
    ),
    (
        "LIKE",
        "minidb's LIKE is case-sensitive (PostgreSQL; ILIKE is the "
        "insensitive form); sqlite's LIKE folds ASCII case",
        "SELECT id FROM t WHERE c LIKE 'AB'",
    ),
    (
        "AVG",
        "both return floats, but the accumulation order (and so the last "
        "bits) and the integer-vs-real rendering of exact means differ",
        None,
    ),
    (
        "RIGHT JOIN",
        "needs sqlite >= 3.39; LEFT JOIN covers the same NULL-extension "
        "code with the sides swapped",
        None,
    ),
]

SCHEMA = [
    "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, c TEXT)",
    "CREATE TABLE u (id INT PRIMARY KEY, a INT, d TEXT)",
    "CREATE VIEW v AS SELECT id, a, b, c FROM t WHERE b IS NOT NULL",
]

#: ``{q}`` is the qualifier of the ``t``-shaped relation the enclosing
#: shape filters (empty, ``t.``, ``x.`` ...)
PREDICATES = [
    "{q}a > 2",
    "{q}a = {q}b",
    "{q}a <> 3",
    "{q}b IS NULL",
    "{q}c IS NOT NULL",
    "{q}a + {q}b >= 4",
    "{q}a * {q}b < 6",
    "{q}c = 'ab'",
    "{q}c < 'b'",
    "{q}a IN (1, 2, NULL)",
    "{q}a NOT IN (0, 3)",
    "{q}b BETWEEN 0 AND 3",
    "CASE WHEN {q}a > {q}b THEN 1 ELSE 0 END = 1",
    "{q}a > 0 AND {q}b < 4",
    "{q}a < 1 OR {q}c = ''",
    "NOT ({q}a = 1)",
]

#: (qualifier for ``{p}``, statement, compare as ordered lists)
SHAPES = [
    # filter + projection + star, DISTINCT
    ("", "SELECT id, a, b, c FROM t WHERE {p}", False),
    ("", "SELECT * FROM t WHERE {p}", False),
    ("", "SELECT id, a + b, a * 2 - b FROM t WHERE {p}", False),
    ("", "SELECT DISTINCT a, c FROM t WHERE {p}", False),
    # ORDER BY on the non-null unique key: top-N and (indexed) ordered scan
    ("", "SELECT id, a FROM t WHERE {p} ORDER BY id LIMIT 3", True),
    ("", "SELECT id, b FROM t WHERE {p} ORDER BY id DESC LIMIT 4 OFFSET 1", True),
    # ungrouped and grouped aggregates, HAVING, expression keys
    (
        "",
        "SELECT COUNT(*), COUNT(a), COUNT(DISTINCT a), SUM(b), MIN(c), MAX(a)"
        " FROM t WHERE {p}",
        False,
    ),
    (
        "",
        "SELECT a, COUNT(*), SUM(b), MIN(c), MAX(b) FROM t WHERE {p} GROUP BY a",
        False,
    ),
    (
        "",
        "SELECT a + b, COUNT(*), COUNT(DISTINCT c) FROM t WHERE {p}"
        " GROUP BY a + b HAVING COUNT(*) > 1",
        False,
    ),
    # hash joins (INNER / LEFT, with and without a residual), comma join
    # keyed from WHERE, self join, nested-loop join, join + GROUP BY
    ("t.", "SELECT t.id, u.id FROM t JOIN u ON t.a = u.a WHERE {p}", False),
    ("t.", "SELECT t.id, u.id FROM t JOIN u ON t.a = u.a AND {p}", False),
    ("t.", "SELECT t.id, u.id, u.d FROM t LEFT JOIN u ON t.a = u.a WHERE {p}", False),
    (
        "t.",
        "SELECT t.id, u.id FROM t LEFT JOIN u ON t.a = u.a AND u.id > t.b AND {p}",
        False,
    ),
    ("t.", "SELECT t.id, u.id FROM t, u WHERE t.a = u.a AND {p}", False),
    ("x.", "SELECT x.id, y.id FROM t x JOIN t y ON x.a = y.b WHERE {p}", False),
    ("t.", "SELECT t.id, u.id FROM t JOIN u ON t.a < u.a WHERE {p}", False),
    ("t.", "SELECT t.id, u.id FROM t LEFT JOIN u ON t.b > u.id AND {p}", False),
    (
        "t.",
        "SELECT u.d, COUNT(*), SUM(t.b) FROM t JOIN u ON t.a = u.a WHERE {p}"
        " GROUP BY u.d",
        False,
    ),
    # derived table and view, as the source and as a join side
    (
        "",
        "SELECT x.a, x.n FROM (SELECT a, COUNT(*) AS n FROM t WHERE {p} GROUP BY a) x"
        " WHERE x.n > 1",
        False,
    ),
    (
        "",
        "SELECT u.id, x.n FROM u JOIN"
        " (SELECT a, COUNT(*) AS n FROM t WHERE {p} GROUP BY a) x ON u.a = x.a",
        False,
    ),
    ("", "SELECT id, a, b FROM v WHERE {p}", False),
    ("", "SELECT a, COUNT(*), MAX(c) FROM v WHERE {p} GROUP BY a", False),
    ("v.", "SELECT u.id, v.id FROM u LEFT JOIN v ON u.a = v.a AND {p}", False),
    # set operations
    ("", "SELECT a FROM t WHERE {p} UNION SELECT a FROM u", False),
    ("", "SELECT a FROM t WHERE {p} UNION ALL SELECT a FROM u", False),
    ("", "SELECT a FROM t WHERE {p} INTERSECT SELECT a FROM u", False),
    ("", "SELECT a FROM t WHERE {p} EXCEPT SELECT a FROM u", False),
    # subqueries: IN (SELECT), correlated EXISTS / NOT EXISTS / scalar
    ("", "SELECT id FROM t WHERE a IN (SELECT a FROM u) AND {p}", False),
    (
        "t.",
        "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a) AND {p}",
        False,
    ),
    (
        "t.",
        "SELECT id FROM t WHERE NOT EXISTS"
        " (SELECT 1 FROM u WHERE u.a = t.a AND u.id > t.b) OR {p}",
        False,
    ),
    (
        "t.",
        "SELECT id, (SELECT COUNT(*) FROM u WHERE u.a = t.a),"
        " (SELECT MAX(u.id) FROM u WHERE u.a = t.a) FROM t WHERE {p}",
        False,
    ),
]

#: shapes drawn only over NULL-free ``t.a`` / ``t.b``: ORDER BY a [DESC]
#: with ``id`` breaking ties, and GROUP BY a (AVG stays excluded)
NULL_FREE_SHAPES = [
    ("", "SELECT id, a, b FROM t WHERE {p} ORDER BY a, id LIMIT 4", True),
    ("", "SELECT a, id FROM t WHERE {p} ORDER BY a DESC, id DESC LIMIT 3", True),
    ("", "SELECT id, a FROM t WHERE {p} ORDER BY a DESC, id LIMIT 5 OFFSET 2", True),
    (
        "",
        "SELECT a, COUNT(*), COUNT(b), SUM(b), MIN(b), MAX(b) FROM t WHERE {p}"
        " GROUP BY a",
        False,
    ),
]

small = st.integers(min_value=-3, max_value=5)
ints = st.one_of(st.none(), small)
texts = st.one_of(st.none(), st.sampled_from(["", "ab", "ba", "Ab", "b"]))
t_rows = st.lists(st.tuples(ints, ints, texts), max_size=14)
null_free_t_rows = st.lists(st.tuples(small, small, texts), max_size=14)
u_rows = st.lists(st.tuples(ints, texts), max_size=8)


def statements(shapes):
    return st.lists(
        st.tuples(st.sampled_from(shapes), st.sampled_from(PREDICATES)),
        min_size=1,
        max_size=5,
    )


#: (t rows, drawn statements): one example in three has NULL-free a / b
drawn_case = st.one_of(
    st.tuples(t_rows, statements(SHAPES)),
    st.tuples(t_rows, statements(SHAPES)),
    st.tuples(null_free_t_rows, statements(SHAPES + NULL_FREE_SHAPES)),
)


def build_engines(t_data, u_data, indexed=False):
    """The same schema and rows on a fresh minidb session and a fresh
    sqlite3 connection; ``indexed`` adds minidb-only sorted indexes so the
    range, union and ordered index scans run too."""
    db = Database(owner="a")
    session = db.connect("a")
    lite = sqlite3.connect(":memory:")
    for ddl in SCHEMA:
        session.execute(ddl)
        lite.execute(ddl)
    if indexed:
        session.execute("CREATE INDEX ix_t_id ON t USING BTREE (id)")
        session.execute("CREATE INDEX ix_t_a ON t USING BTREE (a)")
        session.execute("CREATE INDEX ix_u_a ON u (a)")
    t_full = [(i, a, b, c) for i, (a, b, c) in enumerate(t_data)]
    u_full = [(i, a, d) for i, (a, d) in enumerate(u_data)]
    for row in t_full:
        db.heap("t").insert(dict(zip(("id", "a", "b", "c"), row)))
    for row in u_full:
        db.heap("u").insert(dict(zip(("id", "a", "d"), row)))
    lite.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", t_full)
    lite.executemany("INSERT INTO u VALUES (?, ?, ?)", u_full)
    return session, lite


def outcome(run, sql, ordered):
    """Rows as a comparable value, or the engine's error class name."""
    try:
        rows = [tuple(row) for row in run(sql)]
    except (MiniDBError, sqlite3.Error) as exc:
        return ("error", type(exc).__name__)
    return ("rows", rows if ordered else Counter(rows))


def run_both(session, lite, sql, ordered):
    return (
        outcome(lambda q: session.execute(q).rows, sql, ordered),
        outcome(lambda q: lite.execute(q).fetchall(), sql, ordered),
    )


def crosscheck(session, lite, sql, ordered=False):
    mine, theirs = run_both(session, lite, sql, ordered)
    assert mine[0] == theirs[0] == "rows", (sql, mine, theirs)
    assert mine == theirs, (sql, session.db.planner_options)


@settings(max_examples=250, deadline=None)
@given(
    case=drawn_case,
    u_data=u_rows,
    indexed=st.booleans(),
    batch_size=st.sampled_from([1, 2, 7, DEFAULT_BATCH_SIZE]),
)
def test_select_results_match_sqlite(case, u_data, indexed, batch_size):
    t_data, drawn = case
    session, lite = build_engines(t_data, u_data, indexed)
    session.db.planner_options["batch_size"] = batch_size
    try:
        for (qualifier, shape, ordered), predicate in drawn:
            sql = shape.format(p=predicate.format(q=qualifier))
            crosscheck(session, lite, sql, ordered)
    finally:
        lite.close()


def test_every_shape_and_predicate_is_in_the_intersection():
    """The whole grid once, on fixed rows covering NULLs, duplicates, the
    empty string and unmatched join keys — so a shape or predicate that
    leaves the dialect intersection fails deterministically."""
    for null_free, shapes in ((False, SHAPES), (True, SHAPES + NULL_FREE_SHAPES)):
        session, lite = witness_engines(null_free)
        for qualifier, shape, ordered in shapes:
            for predicate in PREDICATES:
                sql = shape.format(p=predicate.format(q=qualifier))
                crosscheck(session, lite, sql, ordered)
        lite.close()


def witness_engines(null_free=False):
    t_data = [
        (1, 2, "ab"), (None, 1, None), (-3, None, ""), (1, 1, "Ab"),
        (3, 0, "b"), (2, 2, "ab"), (5, -1, "ba"), (0, 4, None),
    ]
    if null_free:  # same rows, NULL a / b replaced by duplicates
        t_data = [(1 if a is None else a, 2 if b is None else b, c) for a, b, c in t_data]
    return build_engines(t_data, [(1, "x"), (2, None), (2, "x"), (None, "y"), (4, "")])


@pytest.mark.parametrize(
    "name, sql",
    [(name, sql) for name, _, sql in EXCLUSIONS if sql is not None],
)
def test_exclusions_are_real_divergences(name, sql):
    """Each excluded construct really does differ between the engines: the
    oracle reports it (it would catch the same divergence planted inside
    the pipeline), and a row that no longer diverges must leave the table."""
    session, lite = witness_engines()
    mine, theirs = run_both(session, lite, sql, True)
    lite.close()
    assert mine != theirs, name
