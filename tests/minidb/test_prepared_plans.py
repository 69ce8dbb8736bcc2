"""Prepared plans: a template's plan and kernels are built once per catalog
version and table statistics, and every execution reads its literals from
the vector it supplies.

**The oracle.** Each statement runs twice over: through ``parse()`` — the
text is bound from a template whose prepared plan a sibling text (same
tokens, other literals) built just before — and as a statement ``parse()``
never saw (``_Parser(sql).parse_one()``), which the executor plans afresh
on every execution. Both must give the same rows, rowcount or error, and
the plan the cached side ran (``EXPLAIN ANALYZE``, actuals stripped) must
print exactly what ``planner.plan_select`` prints for the literal
statement. Inputs: every SQL text the four e2e workloads script, the
sqlite differential's statement draws and the conformance cases, then the
same under churn — DDL, ANALYZE, ``BEGIN; ANALYZE; ROLLBACK``, DROP +
CREATE — and from ``REPRO_STRESS_THREADS`` threads at once.

Beside it: a cached-plan SELECT that waits for its S lock behind DROP +
CREATE answers from the new table; the interpreting executor interprets a
plan the kernel executor prepared, and the kernel executor runs the kernels
of one the interpreting executor prepared; kernels are compiled where a
plan is made, once per prepared plan and on every run of any other; a REVOKE,
or a GRANT rolled back, between two executions of one cached template is
honoured; a range choice between two indexes follows each execution's
selectivity; the plan counters.
"""

import os
import re
import sys
import threading
import time
from pathlib import Path

import pytest
from interpreter_leg import use_engine
from test_sql_conformance import CASES

from repro.minidb import Database
from repro.minidb import executor as executor_module
from repro.minidb import ast_nodes as ast
from repro.minidb.errors import MiniDBError, PermissionDenied, UnknownColumnError
from repro.minidb.expressions import Evaluator
from repro.minidb.parser import _Parser, parse, parse_cache_stats
from repro.minidb.planner import plan_select

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tests" / "differential"))
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
sys.path.insert(0, str(ROOT / "tests" / "minidb"))
from e2ebench import spec  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402
from test_parse_templates import _sql_texts, same_kind  # noqa: E402
from test_sqlite_crosscheck import NULL_FREE_SHAPES, PREDICATES, SHAPES  # noqa: E402

STRESS_THREADS = int(os.environ.get("REPRO_STRESS_THREADS", "6"))

_ACTUAL = re.compile(r" \((actual rows=\d+, time=[0-9.]+ ms|never executed)\)")
_DML = (ast.UpdateStatement, ast.DeleteStatement, ast.InsertStatement)


def fresh(sql):
    """``sql`` as a statement no template holds: planned afresh each time."""
    return _Parser(sql).parse_one()


def outcome(run):
    """What a statement answers: its rows and rowcount, or its error."""
    try:
        result = run()
    except MiniDBError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", repr(result.rows), result.rowcount)


def cached_explain(session, sql):
    """The plan the cached side runs for ``sql``, as EXPLAIN prints it."""
    rows = session.execute(f"EXPLAIN ANALYZE {sql}").rows
    lines = [line for (line,) in rows if not line.startswith(("Result rows:", "Execution time:"))]
    return [_ACTUAL.sub("", line) for line in lines]


def fresh_explain(db, sql):
    return plan_select(fresh(sql), db, db.catalog.table).lines()


def target_rows(session, stmt):
    return session.execute(f"SELECT * FROM {stmt.table}").rows


def run_dml(session, stmt_or_sql, stmt):
    """A DML statement's outcome and its table afterwards, rolled back."""
    session.execute("BEGIN")
    try:
        if isinstance(stmt_or_sql, str):
            answer = outcome(lambda: session.execute(stmt_or_sql))
        else:
            answer = outcome(lambda: session.execute_statement(stmt_or_sql))
        return answer, repr(target_rows(session, stmt))
    finally:
        session.execute("ROLLBACK")


def check_text(db, session, sql):
    """Cached ≡ fresh for ``sql`` and one sibling, the sibling first: the
    second execution is served the plan the first one prepared."""
    try:
        stmt = fresh(sql)
    except MiniDBError:
        return
    if not isinstance(stmt, (ast.SelectStatement, *_DML)):
        return
    for text in (same_kind(sql, 3), sql):
        if isinstance(stmt, _DML):
            cached = run_dml(session, text, stmt)
            assert cached == run_dml(session, fresh(text), stmt), text
            continue
        cached = outcome(lambda: session.execute(text))
        assert cached == outcome(lambda: session.execute_statement(fresh(text))), text
        if cached[0] == "ok":
            assert cached_explain(session, text) == fresh_explain(db, text), text


# --------------------------------------------------------------------------
# the corpora
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_e2e_texts_cached_equal_fresh(name, tmp_path):
    workload = WORKLOADS[name](7, spec.SMOKE[name], str(tmp_path))
    texts = set()
    for client in range(workload.clients):
        for episode in workload.script(client):
            for step in episode.steps:
                texts.update(_sql_texts(step.call.args))
    workload.build()
    try:
        db = workload.db
        session = db.connect(db.privileges.owner)
        for sql in sorted(texts):
            check_text(db, session, sql)
    finally:
        workload.close()


def differential_db():
    db = Database(owner="admin")
    admin = db.connect("admin")
    admin.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, c TEXT)")
    admin.execute("CREATE TABLE u (id INT PRIMARY KEY, a INT, d TEXT)")
    admin.execute("CREATE VIEW v AS SELECT id, a, b, c FROM t WHERE b IS NOT NULL")
    admin.execute("CREATE INDEX ix_t_a ON t USING BTREE (a)")
    texts = ["", "ab", "b", "abc", None]
    for i in range(24):
        b = "NULL" if i % 7 == 3 else i % 5
        c = "NULL" if texts[i % 5] is None else f"'{texts[i % 5]}'"
        admin.execute(f"INSERT INTO t VALUES ({i}, {i % 6}, {b}, {c})")
        if i % 2:
            admin.execute(f"INSERT INTO u VALUES ({i}, {i % 4}, 'd{i % 3}')")
    return db, admin


DIFFERENTIAL = [
    shape.format(p=predicate.format(q=qualifier))
    for qualifier, shape, _ in SHAPES + NULL_FREE_SHAPES
    for predicate in PREDICATES
]


def test_differential_draws_cached_equal_fresh():
    db, admin = differential_db()
    for sql in DIFFERENTIAL:
        check_text(db, admin, sql)


def test_conformance_cases_cached_equal_fresh():
    db = Database(owner="a")
    session = db.connect("a")
    session.execute("CREATE TABLE nums (n INT PRIMARY KEY, parity TEXT, flt FLOAT)")
    for n in range(1, 11):
        parity = "even" if n % 2 == 0 else "odd"
        session.execute(f"INSERT INTO nums VALUES ({n}, '{parity}', {n * 1.5})")
    session.execute("CREATE TABLE pets (id INT, owner TEXT, kind TEXT)")
    session.execute(
        "INSERT INTO pets VALUES (1, 'ann', 'cat'), (2, 'ann', 'dog'), "
        "(3, 'bob', 'cat'), (4, NULL, 'fish')"
    )
    for sql, _ in CASES:
        check_text(db, session, sql)


# --------------------------------------------------------------------------
# churn: every change a key must see
# --------------------------------------------------------------------------

CHURN_TEXTS = [
    "SELECT id, b FROM t WHERE a = 2",
    "SELECT id FROM t WHERE a > 3 AND b < 4",
    "SELECT id, a FROM t WHERE a BETWEEN 1 AND 3 ORDER BY a LIMIT 5",
    "SELECT id FROM t WHERE a IN (1, 4) OR a = 5",
    "SELECT t.id, u.d FROM t JOIN u ON t.a = u.a WHERE t.b = 1 AND u.id > 3",
    "SELECT a, COUNT(*) FROM t WHERE c = 'ab' GROUP BY a ORDER BY a",
    "UPDATE t SET b = b + 1 WHERE a = 2",
    "DELETE FROM t WHERE a > 4",
]


def check_churn(db, session):
    for sql in CHURN_TEXTS:
        check_text(db, session, sql)


def test_schema_changes_replace_the_plan():
    db, admin = differential_db()
    check_churn(db, admin)
    admin.execute("CREATE INDEX ix_t_b ON t (b)")  # a new candidate
    check_churn(db, admin)
    admin.execute("DROP INDEX ix_t_a")  # the cached index is gone
    check_churn(db, admin)
    admin.execute("CREATE INDEX ix_u_a ON u USING HASH (a)")
    check_churn(db, admin)


def test_analyze_replaces_the_plan():
    db, admin = differential_db()
    check_churn(db, admin)
    admin.execute("ANALYZE t")  # estimates appear in the plan
    check_churn(db, admin)
    for i in range(100, 160):
        admin.execute(f"INSERT INTO t VALUES ({i}, 2, 1, 'ab')")
    admin.execute("ANALYZE t")  # other statistics, other estimates
    check_churn(db, admin)


def test_rolled_back_analyze_restores_the_plan():
    db, admin = differential_db()
    admin.execute("ANALYZE t")
    check_churn(db, admin)
    admin.execute("BEGIN")
    for i in range(100, 160):
        admin.execute(f"INSERT INTO t VALUES ({i}, 2, 1, 'ab')")
    admin.execute("ANALYZE t")
    # a plan prepared under the transaction's statistics
    assert outcome(lambda: admin.execute("SELECT id FROM t WHERE a = 2"))[0] == "ok"
    admin.execute("ROLLBACK")
    # the old statistics object is back: so is the plan made under it
    check_churn(db, admin)


def test_drop_and_create_replace_the_plan():
    db, admin = differential_db()
    check_churn(db, admin)
    admin.execute("DROP VIEW v")
    admin.execute("DROP TABLE t")
    admin.execute("CREATE TABLE t (id INT PRIMARY KEY, b INT, a INT, c TEXT)")
    admin.execute("CREATE INDEX ix_t_b ON t USING BTREE (b)")
    for i in range(30):
        admin.execute(f"INSERT INTO t VALUES ({i}, {i % 3}, {i % 7}, 'ab')")
    check_churn(db, admin)
    admin.execute("DROP TABLE t")
    admin.execute("CREATE TABLE t (id INT PRIMARY KEY, a TEXT, b INT, c TEXT)")
    admin.execute("INSERT INTO t VALUES (1, 'x', 1, 'ab')")
    check_churn(db, admin)


def test_threads_share_plans_under_churn():
    """Readers run one template with their own literals while another
    session adds and drops an index and re-analyzes: every answer is the
    fresh answer for its literal (the data never changes)."""
    db, admin = differential_db()
    texts = [f"SELECT id, b FROM t WHERE a = {a} AND id >= {lo}" for a in range(6) for lo in (0, 5)]
    expected = {sql: outcome(lambda sql=sql: admin.execute_statement(fresh(sql))) for sql in texts}
    errors = []
    stop = threading.Event()

    def read(index):
        session = db.connect("admin")
        try:
            for round_ in range(40):
                sql = texts[(index * 7 + round_) % len(texts)]
                answer = outcome(lambda: session.execute(sql))
                if answer != expected[sql]:
                    errors.append((sql, answer))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    def churn():
        session = db.connect("admin")
        while not stop.is_set():
            session.execute("CREATE INDEX ix_t_b ON t (b)")
            session.execute("ANALYZE t")
            session.execute("DROP INDEX ix_t_b")

    churner = threading.Thread(target=churn)
    churner.start()
    readers = [threading.Thread(target=read, args=(i,)) for i in range(STRESS_THREADS)]
    for thread in readers:
        thread.start()
    for thread in readers:
        thread.join()
    stop.set()
    churner.join()
    assert errors == []
    check_churn(db, admin)


# --------------------------------------------------------------------------
# locks, engines, compile sites, privileges, the generic-vs-custom rule
# --------------------------------------------------------------------------


def test_cached_select_waiting_on_its_lock_reads_the_recreated_table():
    """S locks are taken on every execution, in FROM order, before the
    cached plan is trusted: a SELECT whose plan was cached, parked on its
    S lock while another session drops and recreates the table, answers
    from the new table — or with the new schema's name error."""
    from repro.service import LockManager

    db = Database(owner="admin")
    db.lock_manager = LockManager(timeout_s=10.0)
    admin = db.connect("admin")
    admin.execute("CREATE TABLE a (id INT PRIMARY KEY, w INT)")
    admin.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
    admin.execute("INSERT INTO a VALUES (1, 7), (2, 8)")
    admin.execute("INSERT INTO t VALUES (1, 'old'), (2, 'old')")
    reader = db.connect("admin")
    sql = "SELECT t.v FROM a, t WHERE a.id = t.id AND t.id = {}"
    assert reader.execute(sql.format(1)).rows == [("old",)]
    assert reader.execute(sql.format(1)).rows == [("old",)]  # served cached

    def blocked(text, recreate):
        ddl = db.connect("admin")
        ddl.execute("BEGIN")
        ddl.execute("DELETE FROM t WHERE id = 999")  # X on t, no rows hit
        outcome_ = {}

        def select():
            try:
                outcome_["rows"] = reader.execute(text).rows
            except Exception as exc:
                outcome_["error"] = exc

        thread = threading.Thread(target=select, daemon=True)
        thread.start()
        time.sleep(0.2)  # S on a granted; parked on t
        assert thread.is_alive()
        ddl.execute("DROP TABLE t")
        for statement in recreate:
            ddl.execute(statement)
        ddl.execute("COMMIT")
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        return outcome_

    answer = blocked(sql.format(2), [
        "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)",
        "INSERT INTO t VALUES (2, 'new')",
    ])
    assert answer == {"rows": [("new",)]}
    answer = blocked(sql.format(2), [
        "CREATE TABLE t (id INT PRIMARY KEY, w INT)",
        "INSERT INTO t VALUES (2, 5)",
    ])
    assert isinstance(answer.get("error"), UnknownColumnError), answer


@pytest.mark.parametrize("prepared_on_kernels", [True, False], ids=["kernels", "interpreter"])
def test_a_prepared_plan_runs_on_the_engine_of_its_executor(monkeypatch, prepared_on_kernels):
    """Which engine runs is the executor's, not the plan's: a template one
    executor prepared is served to the other (a plan hit), which
    interprets it (the interpreting executor) or runs its kernels."""
    db, admin = differential_db()
    sql = "SELECT id FROM t WHERE b + {} > 3"
    use_engine(db, prepared_on_kernels)
    admin.execute(sql.format(1))  # prepared
    calls = []
    evaluate = Evaluator.evaluate

    def counting(self, expr, scope):
        calls.append(expr)
        return evaluate(self, expr, scope)

    monkeypatch.setattr(Evaluator, "evaluate", counting)
    use_engine(db, not prepared_on_kernels)
    hits = parse_cache_stats()["plan_hits"]
    rows = admin.execute(sql.format(0)).rows
    assert parse_cache_stats()["plan_hits"] == hits + 1
    if prepared_on_kernels:
        assert calls, "the interpreter never ran: the prepared kernels were read"
    else:
        assert not calls, "the interpreter ran where the plan holds kernels"
    monkeypatch.undo()
    assert rows == admin.execute_statement(fresh(sql.format(0))).rows


def test_kernels_are_compiled_where_a_plan_is_made(monkeypatch):
    """One compile site: a prepared-plan hit compiles nothing, and a kept
    plan, a custom plan, a statement no template holds and each run of a
    correlated subquery compile their positions in ``Executor._prepare``."""
    callers = []
    compile_batch_expr = executor_module.compile_batch_expr

    def counting(expr, slots):
        callers.append(sys._getframe(1).f_code.co_qualname)
        return compile_batch_expr(expr, slots)

    monkeypatch.setattr(executor_module, "compile_batch_expr", counting)

    def compiles(run, *args):
        callers.clear()
        run(*args)
        assert set(callers) <= {"Executor._prepare"}, callers
        return len(callers)

    db, admin = differential_db()
    sql = "SELECT id, a + {} FROM t WHERE b > {}"  # WHERE and two items
    assert compiles(admin.execute, sql.format(1, 1)) == 3  # a miss: kept
    assert compiles(admin.execute, sql.format(2, 2)) == 0  # a hit
    assert compiles(admin.execute_statement, fresh(sql.format(3, 3))) == 3
    update = "UPDATE t SET c = c WHERE a = {}"  # the target scan's WHERE
    assert compiles(admin.execute, update.format(1)) == 1
    assert compiles(admin.execute, update.format(2)) == 0
    # the WHERE (interpreted: it holds a subquery) and the item, then the
    # subquery's WHERE and item once per row of t
    correlated = "SELECT id FROM t WHERE EXISTS (SELECT u.id FROM u WHERE u.a = t.a)"
    assert compiles(admin.execute_statement, fresh(correlated)) == 2 + 2 * 24
    db, admin = ranged_db()
    custom = "SELECT id FROM r WHERE a > {} AND b > 5"
    for value in range(2):
        assert compiles(admin.execute, custom.format(value)) == 2


def test_privileges_are_read_on_every_execution():
    db, admin = differential_db()
    db.create_user("reader")
    reader = db.connect("reader")
    sql = "SELECT id FROM t WHERE a = {}"
    admin.execute("GRANT SELECT ON t TO reader")
    assert reader.execute(sql.format(1)).rows
    assert reader.execute(sql.format(2)).rows  # served cached
    admin.execute("REVOKE SELECT ON t FROM reader")
    with pytest.raises(PermissionDenied):
        reader.execute(sql.format(3))
    # BEGIN; GRANT; ROLLBACK: privilege records are not transactional in
    # minidb (``changes.py``), so the grant stands, and the next execution
    # of the cached template sees it
    admin.execute("BEGIN")
    admin.execute("GRANT SELECT ON t TO reader")
    admin.execute("ROLLBACK")
    assert reader.execute(sql.format(4)).rows == [(4,), (10,), (16,), (22,)]
    admin.execute("REVOKE SELECT ON t FROM reader")
    with pytest.raises(PermissionDenied):
        reader.execute(sql.format(5))


def ranged_db():
    """Two btree indexes and statistics: which range scan is cheaper
    depends on the literals."""
    db = Database(owner="admin")
    admin = db.connect("admin")
    admin.execute("CREATE TABLE r (id INT PRIMARY KEY, a INT, b INT)")
    admin.execute("CREATE INDEX ix_r_a ON r USING BTREE (a)")
    admin.execute("CREATE INDEX ix_r_b ON r USING BTREE (b)")
    heap = db.heap("r")
    for i in range(400):
        heap.insert({"id": i, "a": i, "b": (i * 7) % 400})
    admin.execute("ANALYZE r")
    return db, admin


def test_two_candidate_range_plan_follows_each_selectivity():
    db, admin = ranged_db()
    sql = "SELECT id FROM r WHERE a > {} AND b > {}"
    narrow_a, narrow_b = sql.format(390, 0), sql.format(0, 390)
    plans = []
    for text in (narrow_a, narrow_b, narrow_a, narrow_b):
        plans.append(cached_explain(admin, text))
        assert plans[-1] == fresh_explain(db, text), text
        assert admin.execute(text).rows == admin.execute_statement(fresh(text)).rows
    assert plans[0] != plans[1]  # the choice did flip


def test_plan_counters():
    db, admin = differential_db()
    before = parse_cache_stats()
    generic = "SELECT b FROM t WHERE id = {} AND b >= 0"
    for value in range(5):
        admin.execute(generic.format(value))
    after = parse_cache_stats()
    assert after["plan_misses"] - before["plan_misses"] == 1
    assert after["plan_hits"] - before["plan_hits"] == 4
    assert after["plan_custom"] == before["plan_custom"]
    # two range candidates under statistics: re-planned on every call
    db, admin = ranged_db()
    before = parse_cache_stats()
    for value in range(3):
        admin.execute(f"SELECT id FROM r WHERE a > {value} AND b > 5")
    after = parse_cache_stats()
    assert after["plan_custom"] - before["plan_custom"] == 3
    assert after["plan_hits"] == before["plan_hits"]
    text = db.metrics.render_text()
    for name in ("plan_hits", "plan_misses", "plan_custom"):
        assert f"minidb_parse_cache_{name}" in text


def test_a_cached_plan_holds_no_literal():
    """The plan a template keeps prints the same for every execution's
    literals: nothing of one execution stays on it."""
    db, admin = differential_db()
    sql = "SELECT id FROM t WHERE a BETWEEN {} AND 5 ORDER BY a LIMIT {}"
    first = cached_explain(admin, sql.format(1, 2))
    second = cached_explain(admin, sql.format(3, 4))
    assert first == fresh_explain(db, sql.format(1, 2))
    assert second == fresh_explain(db, sql.format(3, 4))
    assert first != second
    stmt = parse(f"EXPLAIN ANALYZE {sql.format(3, 4)}")
    assert stmt.select.limit == 4
