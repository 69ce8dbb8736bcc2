"""A scan cuts its heap once, and what it cut is a snapshot.

A seq scan reads the heap through one :meth:`HeapTable.cut` — one copy of
each referenced column — and the scan operator keeps the copy as its
column store; only the selector works in chunks of ``batch_size`` rows.
The witnesses below read a table while the same statement (or the same
transaction) writes it, on 2,500 rows: three 1,024-row batches for a scan
that cut batches, one cut now. Each also holds the result of a plain
SELECT taken before the write and reads its rows only after it. Each
runs on batch kernels and on the interpreter leg, and its rows must equal
the ones computed here in Python. A cut that handed out the heap's own
lists would let the write reach the held result. The counting test pins
the one cut and the absence of a ``list.extend`` in the scan operator,
at 100 and at 10,000 rows.
"""

import sys

import pytest
from interpreter_leg import use_engine

from repro.minidb import Database
from repro.minidb.batch import DEFAULT_BATCH_SIZE
from repro.minidb.executor import Executor
from repro.minidb.storage import HeapTable

ROWS = 2_500  # more than two batches of DEFAULT_BATCH_SIZE
assert ROWS > 2 * DEFAULT_BATCH_SIZE


def start(compiled: bool, rows: int = ROWS):
    """``t(a, b)`` holding ``a = 0 .. rows - 1`` and ``b = 'v' || a``,
    with no index, so every read of ``t`` is a seq scan; statements run
    on kernels or on the interpreter leg."""
    db = Database(owner="a")
    session = db.connect("a")
    session.execute("CREATE TABLE t (a INT, b TEXT)")
    heap = db.heap("t")
    for a in range(rows):
        heap.insert({"a": a, "b": f"v{a}"})
    use_engine(db, compiled)
    return session


def table(session):
    return session.execute("SELECT a, b FROM t").rows


def held(session):
    """A result of ``SELECT a, b FROM t`` whose rows are not read yet: a
    result builds its rows from its columns on first read, and those are
    the scan's lists, so a write that reached them would show here."""
    return session.execute("SELECT a, b FROM t")


LEGS = pytest.mark.parametrize("compiled", [True, False], ids=["kernels", "interpreter"])
EVERYTHING = [(a, f"v{a}") for a in range(ROWS)]


@LEGS
def test_insert_select_reads_the_table_before_the_insert(compiled):
    session = start(compiled)
    earlier = held(session)
    assert session.execute("INSERT INTO t SELECT * FROM t").rowcount == ROWS
    assert table(session) == EVERYTHING + EVERYTHING
    assert earlier.rows == EVERYTHING


@LEGS
def test_update_reads_its_subquery_before_the_update(compiled):
    """Every ``a`` is in the subquery's answer as it stood when the
    statement began, so every row moves up by exactly one."""
    session = start(compiled)
    earlier = held(session)
    result = session.execute("UPDATE t SET a = a + 1 WHERE a IN (SELECT a FROM t)")
    assert result.rowcount == ROWS
    assert table(session) == [(a + 1, b) for a, b in EVERYTHING]
    assert earlier.rows == EVERYTHING


@LEGS
def test_delete_reads_its_average_before_the_delete(compiled):
    """The average is the whole table's (1,249.5), not that of what the
    deletes leave."""
    session = start(compiled)
    earlier = held(session)
    average = sum(range(ROWS)) / ROWS
    result = session.execute("DELETE FROM t WHERE a > (SELECT AVG(a) FROM t)")
    kept = [(a, b) for a, b in EVERYTHING if a <= average]
    assert result.rowcount == ROWS - len(kept)
    assert table(session) == kept
    assert earlier.rows == EVERYTHING


@LEGS
def test_a_transaction_scans_again_after_it_deletes(compiled):
    """A scan before the writes keeps its rows; the scans after them see
    them (the deletes' tombstones are cut through ``live``), and after
    the ROLLBACK the whole table again."""
    session = start(compiled)
    session.execute("BEGIN")
    earlier = held(session)
    session.execute("UPDATE t SET b = 'w' WHERE a % 3 = 1")
    session.execute("DELETE FROM t WHERE a % 3 = 0 OR a > 2000")
    left = [(a, "w" if a % 3 == 1 else b) for a, b in EVERYTHING if a % 3 and a <= 2000]
    again = held(session)
    session.execute("INSERT INTO t VALUES (-1, 'new')")
    assert table(session) == left + [(-1, "new")]
    assert again.rows == left
    assert session.execute("SELECT COUNT(*), SUM(a) FROM t WHERE a > 1000").rows == [
        (sum(1 for a, _ in left if a > 1000), sum(a for a, _ in left if a > 1000))
    ]
    assert earlier.rows == EVERYTHING
    session.execute("ROLLBACK")
    assert table(session) == EVERYTHING


# ------------------------------------------------------------ one cut


def scan_calls(session, sql):
    """``(cuts, fetches, extends)`` of one run of ``sql`` (after a first
    run has prepared its plan): :meth:`HeapTable.cut` and
    :meth:`HeapTable.fetch_batch` calls, and ``list.extend`` calls made
    by :meth:`Executor._scan`."""
    session.execute(sql)
    cuts = fetches = extends = 0

    def profile(frame, event, arg):
        nonlocal cuts, fetches, extends
        code = frame.f_code
        if event == "call":
            cuts += code is HeapTable.cut.__code__
            fetches += code is HeapTable.fetch_batch.__code__
        elif event == "c_call" and code is Executor._scan.__code__:
            extends += getattr(arg, "__name__", None) == "extend"

    sys.setprofile(profile)
    try:
        session.execute(sql)
    finally:
        sys.setprofile(None)
    return cuts, fetches, extends


@pytest.mark.parametrize("rows", [100, 10_000])
def test_a_scan_cuts_once_and_extends_nothing(rows):
    session = start(True, rows)
    assert scan_calls(session, "SELECT a, b FROM t WHERE a % 7 = 3") == (1, 0, 0)
    assert scan_calls(session, "SELECT COUNT(*) FROM t") == (1, 0, 0)
    session.execute("CREATE INDEX ix_a ON t USING BTREE (a)")
    # a range path without a limit fetches all its rids at once
    assert scan_calls(session, f"SELECT b FROM t WHERE a >= {rows // 10}") == (0, 1, 0)
    session.execute("DELETE FROM t WHERE a % 2 = 0")  # tombstones: cut through live
    session.execute("DROP INDEX ix_a")
    assert scan_calls(session, "SELECT a FROM t WHERE a > 0") == (1, 0, 0)


# ------------------------------------------------- repeated column names


@LEGS
def test_a_filtered_derived_table_with_a_repeated_column_name(compiled):
    """A derived table can expose one output name twice (two ``COUNT``
    items share a name); the scan over it keeps each name once, and a
    pushed-down filter that drops some of its rows still gathers them."""
    session = start(compiled, 0)
    session.execute("CREATE TABLE s (k INT, a INT, b INT)")
    session.execute("CREATE TABLE u (id INT)")
    session.execute(
        "INSERT INTO s VALUES (1, 1, NULL), (2, 2, 2), (2, NULL, 3), (3, 3, 3)"
    )
    session.execute("INSERT INTO u VALUES (10), (20)")
    rows = session.execute(
        "SELECT u.* FROM (SELECT k, COUNT(a), COUNT(b) FROM s GROUP BY k) g, u"
        " WHERE g.k > 1 ORDER BY u.id"
    ).rows
    assert rows == [(10,), (10,), (20,), (20,)]
    session.execute("CREATE VIEW v AS SELECT k, COUNT(a), COUNT(b) FROM s GROUP BY k")
    rows = session.execute("SELECT u.* FROM v, u WHERE v.k > 1 ORDER BY u.id").rows
    assert rows == [(10,), (10,), (20,), (20,)]
