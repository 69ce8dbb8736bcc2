"""Why the index paths are fast, stated in counts.

Each query class below is run on an indexed ``events`` table and on its
unindexed twin ``events_plain`` (the same rows, no index, so its only
plan is the sequential scan) at two table sizes. The rows a statement
examines (the tracer's ``rows_examined``, also ``system.statements``) are
a count, so the properties hold on any machine:

* the point lookup, the ~50-row range, the 10-member union and
  ``ORDER BY ... LIMIT 10`` show their index node in EXPLAIN, examine as
  many rows at 20,000 rows as at 2,000, and return what the twin's scan of
  every row returns;
* a skewed conjunction examines 90% of the table until ``ANALYZE``, and
  the ~50-row range slice after it;
* the equi-join is hashed, and the same key spelled ``NOT (a <> b)`` is a
  nested loop (``test_join_strategies`` counts that the hash join's
  Python calls do not grow with the rows);
* a ``SortedIndex`` insert into 200,000 entries descends one node per
  level, and no leaf holds more than the fanout.
"""

import pytest

from repro.minidb import Database
from repro.minidb.storage import BTREE_FANOUT, SortedIndex, _Inner

SIZES = (2_000, 20_000)
TWIN = "events_plain"
#: query class -> (SQL at ``rows`` rows, the node EXPLAIN shows for it, the
#: rows it examines at any size, the planner_stats counter its path bumps)
CLASSES = {
    "point": (lambda rows: f"SELECT id FROM events WHERE id = {rows - 1}",
              "Index Scan using pk_events", 1, "index_scans"),
    "range": (lambda rows: "SELECT COUNT(*) FROM events "
              f"WHERE val >= {rows // 25} AND val < {rows // 25 + 50}",
              "Index Range Scan", 50, "range_scans"),
    "union": (lambda rows: "SELECT COUNT(*) FROM events WHERE val IN ("
              + ", ".join(str(i * rows // 10 + 3) for i in range(10)) + ")",
              "Index Union Scan", 10, "union_scans"),
    "topn": (lambda rows: "SELECT id, val FROM events ORDER BY val LIMIT 10",
             "Ordered Index Scan", 10, "ordered_scans"),
}
PREDICATE_SQL = (
    "SELECT COUNT(*) FROM events WHERE grp >= 10 AND grp < 90 "
    "AND flag = 1 AND name LIKE 'n1%'"
)
_JOIN = "SELECT COUNT(*) FROM orders o JOIN customers c ON "
JOIN_SQL = _JOIN + "o.customer_id = c.id"
#: the same join with its key out of the planner's reach
NESTED_LOOP_SQL = _JOIN + "NOT (o.customer_id <> c.id)"


def build(rows: int) -> Database:
    """``events`` (primary key, a B-tree on ``val``, a hash index on
    ``hot``), its unindexed twin, and a 200-row ``orders`` / ``customers``
    pair; tracing on."""
    db = Database(owner="a")
    session = db.connect("a")
    columns = "grp INT, val INT, flag INT, name TEXT, hot INT"
    session.execute(f"CREATE TABLE events (id INT PRIMARY KEY, {columns})")
    session.execute(f"CREATE TABLE {TWIN} (id INT, {columns})")
    for i in range(rows):
        row = {
            "id": i,
            "grp": i % 100,
            "val": (i * 7919) % rows,  # full-period permutation of 0..rows
            "flag": i % 2,
            "name": f"n{i % 1000}",
            # 90% of rows share hot=0; the rest are distinct
            "hot": i if i % 10 == 0 else 0,
        }
        db.heap("events").insert(row)
        db.heap(TWIN).insert(row)
    session.execute("CREATE INDEX ix_events_val ON events USING BTREE (val)")
    session.execute("CREATE INDEX ix_events_hot ON events (hot)")
    session.execute("CREATE TABLE customers (id INT PRIMARY KEY, region TEXT)")
    session.execute("CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT)")
    for i in range(200):
        db.heap("customers").insert({"id": i, "region": ("north", "south")[i % 2]})
        db.heap("orders").insert({"id": i, "customer_id": (i * 7919) % 200})
    db.observability_options["tracing"] = True
    return db


@pytest.fixture(scope="module")
def dbs():
    return {rows: build(rows) for rows in SIZES}


def run(db: Database, sql: str) -> tuple[list, int, dict]:
    """``(rows, rows examined, planner_stats deltas)`` of one statement."""
    before = dict(db.planner_stats)
    rows = db.connect("a").execute(sql).rows
    deltas = {key: db.planner_stats[key] - before[key] for key in before}
    return rows, db.tracer.recent()[-1].rows_examined, deltas


def explain(db: Database, sql: str) -> list[str]:
    return [line for (line,) in db.connect("a").execute(f"EXPLAIN {sql}").rows]


#: every (query class, table size) pair
CASES = [(name, rows) for name in CLASSES for rows in SIZES]


def statements(name: str, rows: int) -> tuple[str, str]:
    """The class's statement on ``events`` and on its twin."""
    sql = CLASSES[name][0](rows)
    return sql, sql.replace("FROM events", f"FROM {TWIN}")


@pytest.mark.parametrize("name,rows", CASES)
def test_each_class_shows_its_index_node(dbs, name, rows):
    sql, _ = statements(name, rows)
    node = CLASSES[name][1]
    assert any(node in line for line in explain(dbs[rows], sql))


@pytest.mark.parametrize("name,rows", CASES)
def test_the_twin_is_a_seq_scan(dbs, name, rows):
    _, twin_sql = statements(name, rows)
    assert any(f"Seq Scan on {TWIN}" in line for line in explain(dbs[rows], twin_sql))


@pytest.mark.parametrize("name,rows", CASES)
def test_rows_examined_do_not_depend_on_the_table_size(dbs, name, rows):
    sql, _ = statements(name, rows)
    _, _, examined, counter = CLASSES[name]
    _, indexed, deltas = run(dbs[rows], sql)
    assert indexed == examined
    assert deltas[counter] == 1 and deltas["seq_scans"] == 0, deltas


@pytest.mark.parametrize("name,rows", CASES)
def test_the_twin_examines_every_row(dbs, name, rows):
    _, twin_sql = statements(name, rows)
    counter = CLASSES[name][3]
    _, twin, deltas = run(dbs[rows], twin_sql)
    assert twin == rows
    assert deltas["seq_scans"] == 1 and deltas[counter] == 0, deltas


@pytest.mark.parametrize("name,rows", CASES)
def test_the_index_path_returns_the_twins_rows(dbs, name, rows):
    sql, twin_sql = statements(name, rows)
    found, _, _ = run(dbs[rows], sql)
    scanned, _, _ = run(dbs[rows], twin_sql)
    assert found == scanned


@pytest.mark.parametrize("rows", SIZES)
def test_the_point_lookup_finds_its_row(dbs, rows):
    sql, _ = statements("point", rows)
    found, _, _ = run(dbs[rows], sql)
    assert found == [(rows - 1,)]


@pytest.mark.parametrize("rows", SIZES)
def test_a_predicate_on_unindexed_columns_is_a_seq_scan(dbs, rows):
    assert all("Seq Scan" in line for line in explain(dbs[rows], PREDICATE_SQL))


@pytest.mark.parametrize("rows", SIZES)
def test_a_predicate_on_unindexed_columns_runs_in_batches(dbs, rows):
    _, examined, deltas = run(dbs[rows], PREDICATE_SQL)
    assert examined == rows
    assert deltas["seq_scans"] == deltas["batch_scans"] == 1


def skew_sql(rows: int) -> str:
    """``hot = 0`` holds on 90% of the rows while the ``val`` range keeps
    50: without statistics the fully-bound hash probe wins the static
    preference order; ``ANALYZE`` lets the cost model pick the slice."""
    return (
        "SELECT COUNT(*) FROM events WHERE hot = 0 "
        f"AND val >= {rows // 3} AND val < {rows // 3 + 50}"
    )


@pytest.mark.parametrize("rows", SIZES)
def test_without_statistics_the_skewed_probe_takes_the_hash_index(rows):
    db = build(rows)  # its own: another test's ANALYZE would leave statistics
    sql = skew_sql(rows)
    assert any("Index Scan using ix_events_hot" in line for line in explain(db, sql))
    _, examined, _ = run(db, sql)
    assert examined == rows * 9 // 10 + 1  # every row with hot = 0


@pytest.mark.parametrize("rows", SIZES)
def test_statistics_move_the_skewed_probe_to_the_range_slice(rows):
    db = build(rows)
    sql = skew_sql(rows)
    static, _, _ = run(db, sql)
    db.connect("a").execute("ANALYZE events")
    plan = explain(db, sql)
    assert any("Index Range Scan using ix_events_val" in line for line in plan)
    assert any("est. rows" in line for line in plan)
    costed, examined, _ = run(db, sql)
    assert examined == 50
    assert costed == static


def test_the_equi_join_is_hashed(dbs):
    db = dbs[SIZES[0]]
    assert any("Hash Join" in line for line in explain(db, JOIN_SQL))
    hashed, _, deltas = run(db, JOIN_SQL)
    assert (deltas["hash_joins"], deltas["nested_loop_joins"]) == (1, 0)
    assert hashed == [(200,)]


def test_the_spelled_out_key_is_a_nested_loop(dbs):
    db = dbs[SIZES[0]]
    assert any("Nested Loop Join" in line for line in explain(db, NESTED_LOOP_SQL))
    looped, _, deltas = run(db, NESTED_LOOP_SQL)
    assert (deltas["hash_joins"], deltas["nested_loop_joins"]) == (0, 1)
    assert looped == [(200,)]


BTREE_ENTRIES = 200_000
#: keys spread over the index, and keys past its end (an id index's
#: appends, which all land on the last leaf)
INSERTS = {
    "spread": [(j * 7919) % (BTREE_ENTRIES * 2) for j in range(500)],
    "appended": [BTREE_ENTRIES * 2 + j for j in range(500)],
}


@pytest.mark.parametrize("keys", INSERTS)
def test_a_btree_insert_descends_one_node_per_level(keys):
    index = SortedIndex("ix", ("val",))
    index.bulk_load((i, {"val": i * 2 + 1}) for i in range(BTREE_ENTRIES))
    values = INSERTS[keys]
    descend = index._tree_insert
    touched = 0

    def counting(node, entry):
        nonlocal touched
        touched += 1
        return descend(node, entry)

    index._tree_insert = counting
    for rid, value in enumerate(values, start=BTREE_ENTRIES):
        node, depth = index._root, 1
        while type(node) is _Inner:
            node, depth = node.children[0], depth + 1
        touched = 0
        index.insert(rid, {"val": value})
        assert touched == depth
    assert depth >= 3
    assert len(index) == BTREE_ENTRIES + len(values)
    index.check_invariants()  # fill bounds: no node holds more than the fanout
    # the list an insert shifts is a leaf, not the index
    assert BTREE_FANOUT <= BTREE_ENTRIES // 1000
