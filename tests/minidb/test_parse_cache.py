"""The contract of ``parse()``'s text → AST cache (PR 15).

Only the pure function is cached: whatever reads the catalog, privileges or
statistics runs on every call, an error is never remembered, the cache is
bounded, and a shared statement is never changed by whoever runs it.

Every test here is new in PR 15. None fails at the parent *as written* —
there was no cache to get wrong; they fail against the obvious wrong caches
(one that keeps the analysis or the plan with the statement, one that
remembers failures, an unbounded one, one whose counters are not locked).
"""

import copy
import os
import sys
import threading
from pathlib import Path

import pytest
from test_sql_conformance import CASES, s  # noqa: F401  — ``s`` is its session fixture

from repro.core import BridgeScope, MinidbBinding
from repro.mcp import ToolCall
from repro.minidb import Database
from repro.minidb.errors import PermissionDenied, SQLSyntaxError
from repro.minidb.parser import (
    PARSE_CACHE_ENTRIES,
    PARSE_CACHE_MAX_TEXT,
    parse,
    parse_cache_stats,
    parse_script,
)
from repro.service import Dispatcher, SessionManager

# the differential grid lives beside its oracle; borrow it the way pytest
# itself imports that file (its directory on sys.path, top-level module)
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "differential"))
from test_sqlite_crosscheck import PREDICATES, SHAPES, witness_engines  # noqa: E402

STRESS_THREADS = int(os.environ.get("REPRO_STRESS_THREADS", "6"))


@pytest.fixture
def db():
    database = Database(owner="admin")
    admin = database.connect("admin")
    admin.execute("CREATE TABLE sales (id INT PRIMARY KEY, amount INT)")
    admin.execute("INSERT INTO sales VALUES (1, 30), (2, 160)")
    database.create_user("viewer")
    admin.execute("GRANT SELECT ON sales TO viewer")
    return database


# ------------------------------------------- (a) only the pure function is cached


def test_identical_text_is_rejected_after_revoke_by_both_layers(db):
    sql = "SELECT id, amount FROM sales WHERE amount > 10"
    call = ToolCall("select", {"sql": sql})
    bridge = BridgeScope(MinidbBinding.for_user(db, "viewer"))
    session = db.connect("viewer")

    assert not bridge.call(call).is_error
    assert session.execute(sql).rows == [(1, 30), (2, 160)]
    db.connect("admin").execute("REVOKE SELECT ON sales FROM viewer")

    # tool side: SqlVerifier re-derives the footprint and re-reads privileges
    rejected_before = bridge.verifier.rejected
    result = bridge.call(call)
    assert result.is_error and "permission denied" in result.content
    assert bridge.verifier.rejected == rejected_before + 1
    # database side, independently: Database.authorize on a cached statement
    with pytest.raises(PermissionDenied):
        session.execute(sql)


def test_identical_select_star_sees_a_recreated_table(db):
    sql = "SELECT * FROM sales"
    admin = db.connect("admin")
    bridge = BridgeScope(MinidbBinding.for_user(db, "admin"))
    assert admin.execute(sql).columns == ["id", "amount"]
    assert bridge.call(ToolCall("select", {"sql": sql})).metadata["rows"] == [(1, 30), (2, 160)]

    admin.execute("DROP TABLE sales")
    admin.execute("CREATE TABLE sales (region TEXT, units INT, note TEXT)")
    admin.execute("INSERT INTO sales VALUES ('west', 3, NULL)")

    result = admin.execute(sql)
    assert (result.columns, result.rows) == (["region", "units", "note"], [("west", 3, None)])
    assert bridge.call(ToolCall("select", {"sql": sql})).metadata["rows"] == [("west", 3, None)]


def test_identical_select_star_sees_an_added_column(db):
    sql = "SELECT * FROM sales WHERE id = 1"
    admin = db.connect("admin")
    assert admin.execute(sql).rows == [(1, 30)]
    admin.execute("ALTER TABLE sales ADD COLUMN region TEXT DEFAULT 'west'")
    result = admin.execute(sql)
    assert (result.columns, result.rows) == (["id", "amount", "region"], [(1, 30, "west")])


# --------------------------------------------------- (b) errors are never cached


def test_a_syntax_error_raises_identically_every_time():
    bad = "SELECT id FROM sales WHERE amount = 'hello' 'x'"
    messages = []
    for _ in range(200):
        with pytest.raises(SQLSyntaxError) as caught:
            parse(bad)
        messages.append(str(caught.value))
    assert len(set(messages)) == 1 and "unexpected trailing input near 'x'" in messages[0]
    # and the valid text next to it is not poisoned (or vice versa)
    good = bad[: -len(" 'x'")]
    assert parse(good) is parse(good)
    with pytest.raises(SQLSyntaxError):
        parse(bad)


# ------------------------------------------------------------- (c) it is bounded


def test_ten_thousand_distinct_texts_leave_a_bounded_cache():
    for n in range(10_000):
        parse(f"SELECT {n} FROM sales WHERE id = {n}")
    assert parse_cache_stats()["entries"] <= PARSE_CACHE_ENTRIES
    # the newest are the ones kept, and a hit returns the very same object
    newest = "SELECT 9999 FROM sales WHERE id = 9999"
    hits = parse_cache_stats()["hits"]
    assert parse(newest) is parse(newest)
    assert parse_cache_stats()["hits"] == hits + 2


def test_oversized_texts_are_parsed_but_not_kept():
    rows = ", ".join(f"({n}, {n})" for n in range(PARSE_CACHE_MAX_TEXT // 6))
    big = f"INSERT INTO sales VALUES {rows}"
    assert len(big) > PARSE_CACHE_MAX_TEXT
    first = parse(big)
    assert parse(big) == first and parse(big) is not first


# ------------------------------------------------------- (d) it is thread-safe


def test_counters_and_results_are_exact_under_concurrent_parses():
    texts = [f"SELECT a + {n} FROM t WHERE b = 'v{n}' ORDER BY a LIMIT {n}" for n in range(40)]
    expected = {sql: parse_script(sql)[0] for sql in texts}  # parse_script bypasses the cache
    rounds = 300
    before = parse_cache_stats()
    wrong = []

    def work(offset):
        for n in range(rounds):
            sql = texts[(offset + n) % len(texts)]
            if parse(sql) != expected[sql]:
                wrong.append(sql)
            # churn: distinct texts push the shared ones out again and again
            parse(f"SELECT {offset}, {n}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,), daemon=True) for k in range(STRESS_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    after = parse_cache_stats()
    # a lost update on either counter breaks this
    calls = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    assert calls == STRESS_THREADS * rounds * 2
    assert after["entries"] <= PARSE_CACHE_ENTRIES


def test_sessions_issuing_identical_statements_concurrently_get_the_serial_result():
    db = Database(owner="admin")
    admin = db.connect("admin")
    admin.execute("CREATE TABLE counters (id INT PRIMARY KEY, val INT)")
    admin.execute("INSERT INTO counters VALUES (1, 0)")
    manager = SessionManager(db, lock_timeout_s=30.0)
    dispatcher = Dispatcher(manager, workers=STRESS_THREADS, queue_limit=STRESS_THREADS * 4)
    # byte-identical in every session: all of them share one statement object
    bump = ToolCall("update", {"sql": "UPDATE counters SET val = val + 1 WHERE id = 1"})
    read = ToolCall("select", {"sql": "SELECT val FROM counters WHERE id = 1"})
    per_session = 25
    applied = []
    seen = []

    def work():
        token = manager.create_session("admin").token
        done = 0
        while done < per_session:
            if dispatcher.call(token, bump).is_error:
                continue  # deadlock / lock-timeout victim: nothing was applied
            done += 1
            result = dispatcher.call(token, read)
            if not result.is_error:
                seen.append(result.metadata["rows"][0][0])
        applied.append(done)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, daemon=True) for _ in range(STRESS_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180.0)
    finally:
        sys.setswitchinterval(interval)
    hung = [thread for thread in threads if thread.is_alive()]
    final = admin.scalar("SELECT val FROM counters WHERE id = 1")
    dispatcher.close()
    manager.close()
    assert not hung
    assert final == sum(applied) == STRESS_THREADS * per_session
    assert seen and all(1 <= value <= final for value in seen)


# ------------------------------------------- (e) execution never changes a statement


def assert_unchanged_by_execution(session, sql):
    stmt = parse(sql)
    snapshot = copy.deepcopy(stmt)
    assert snapshot == stmt
    session.execute(sql)
    assert stmt == snapshot, sql


def test_conformance_corpus_leaves_its_statements_unchanged(s):  # noqa: F811
    for sql, _ in CASES:
        assert_unchanged_by_execution(s, sql)


def test_differential_grid_leaves_its_statements_unchanged():
    session, lite = witness_engines()
    lite.close()
    for qualifier, shape, _ in SHAPES:
        for predicate in PREDICATES:
            assert_unchanged_by_execution(session, shape.format(p=predicate.format(q=qualifier)))


#: DML and DDL over the ``db`` fixture's schema, in an order that runs
DML_AND_DDL = [
    "CREATE TABLE notes (id INT PRIMARY KEY, body TEXT NOT NULL DEFAULT 'x' CHECK (id > 0),"
    " sale INT REFERENCES sales(id), UNIQUE (body), CHECK (id < 100))",
    "INSERT INTO notes (id, sale) VALUES (1, 1)",
    "INSERT INTO notes SELECT id + 10, 'n' || id, id FROM sales",
    "UPDATE notes SET body = body || '!' WHERE id IN (SELECT id FROM sales)",
    "CREATE VIEW big AS SELECT id FROM sales WHERE amount > 100 UNION SELECT 0 ORDER BY id",
    "EXPLAIN ANALYZE SELECT * FROM big",
    "DELETE FROM notes WHERE id > 10",
    "ALTER TABLE notes ADD COLUMN tag TEXT DEFAULT 't'",
    "CREATE INDEX ix_notes_tag ON notes USING BTREE (tag)",
    "ANALYZE notes",
    "GRANT SELECT (id) ON notes TO viewer",
    "DROP VIEW big",
    "DROP TABLE notes",
]


def test_dml_and_ddl_leave_their_statements_unchanged(db):
    admin = db.connect("admin")
    for sql in DML_AND_DDL:
        assert_unchanged_by_execution(admin, sql)


def test_nodes_refuse_assignment():
    stmt = parse("SELECT a FROM t WHERE a = 1 ORDER BY a LIMIT 2")
    for node, field in [(stmt, "limit"), (stmt.where, "op"), (stmt.items[0], "alias")]:
        with pytest.raises(AttributeError):  # dataclasses.FrozenInstanceError
            setattr(node, field, None)


# ------------------------------------------------------------------ observability


def test_hit_ratio_is_one_query_away(db):
    admin = db.connect("admin")
    bridge = BridgeScope(MinidbBinding.for_user(db, "admin"))
    # a template no other test parses, so its first call is a template miss
    sql = "SELECT amount AS hit_ratio_probe FROM sales WHERE id = {}"
    prefix = "minidb_parse_cache_"

    def sample():
        rows = admin.execute(
            f"SELECT name, value FROM system.metrics WHERE name LIKE '{prefix}%'"
        ).rows
        return {name[len(prefix):]: value for name, value in rows}

    def delta(after, before):
        return {key: after[key] - before[key] for key in after if not key.endswith("entries")}

    first = sample()
    bridge.call(ToolCall("select", {"sql": sql.format(2)}))
    second = sample()
    assert set(second) == {
        "hits", "misses", "entries",
        "template_hits", "template_misses", "template_entries", "untemplated",
        "analysis_hits", "analysis_misses",
        "plan_hits", "plan_misses", "plan_custom",
    }  # fmt: skip
    # verified (text miss, template miss: the one real parse; the analysis
    # is computed) then executed (text hit, analysis hit, its plan prepared).
    # The metrics query itself is a text hit, an analysis hit and a plan hit
    # the second time it runs (its counts are read after it planned).
    assert delta(second, first) == {
        "hits": 2, "misses": 1,
        "template_hits": 0, "template_misses": 1, "untemplated": 0,
        "analysis_hits": 2, "analysis_misses": 1,
        "plan_hits": 1, "plan_misses": 1, "plan_custom": 0,
    }  # fmt: skip
    # another literal: a text miss bound from the template, and no analysis
    # and no plan to build
    bridge.call(ToolCall("select", {"sql": sql.format(1)}))
    third = sample()
    assert delta(third, second) == {
        "hits": 2, "misses": 1,
        "template_hits": 1, "template_misses": 0, "untemplated": 0,
        "analysis_hits": 3, "analysis_misses": 0,
        "plan_hits": 2, "plan_misses": 0, "plan_custom": 0,
    }  # fmt: skip
    assert 0 < third["entries"] <= PARSE_CACHE_ENTRIES
    assert 0 < third["template_entries"] <= PARSE_CACHE_ENTRIES
    text = db.metrics.render_text()
    assert "minidb_parse_cache_hits" in text
    assert "minidb_parse_cache_template_hits" in text
    assert "minidb_parse_cache_analysis_hits" in text
    assert "minidb_parse_cache_plan_hits" in text
    assert "minidb_parse_cache_untemplated" in text
