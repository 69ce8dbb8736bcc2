"""The template layer behind ``parse()``'s text cache, and ``analyze()``'s
cache per template and catalog version.

A text-cache miss looks its literal skeleton up (the text with every
NUMBER / STRING literal replaced by a marker of its kind, read without the
lexer); a hit rebuilds the template's statement around the new literals
instead of lexing and parsing. ``analyze()`` runs once per template
and catalog version. Both are sound only if a bound statement is exactly
what a fresh parse of the text gives, and a cached analysis exactly what a
fresh analysis gives, under the catalog as it is now.

**The oracle.** Its inputs are every SQL text the four e2e workloads script
(the same ``e2ebench`` import ``benchmarks/e2e/tests`` uses), the sqlite
differential's statement generator, ``test_parse_cache.py``'s corpus, and
Hypothesis substitutions into them: integers, NaN-free reals, strings with
quotes, NULL / TRUE / FALSE and signed numbers. For each text the statement
``parse()`` returns must equal a fresh ``_Parser`` parse, compared by
dataclass equality *and* by ``repr`` (so ``1``, ``1.0`` and ``TRUE``
differ), and ``analyze()``'s answer must equal a fresh ``_Binder`` run,
under a catalog and without one in turn: the same footprint, and the same
binding read in tree order — each column reference's slot, each star's
expansion, each ORDER BY output position and the name error. A rebind
that turns ``1.0`` into ``1`` fails it, and so does an analysis cache
that ignores the catalog version.

Beside it, a property over texts that share a skeleton: same-kind literal
substitutions (``''''``, ``1.``, ``.5``, ``2.5E-3``, numbers after a sign,
pinned ORDER BY ordinals and type lengths) parse as a fresh parse does, or
raise its message. Below: the invalidation contract (privileges and every
schema change are seen by the next call of a template, whatever its
literals), threaded tests (many threads bind one template with their own
literals; many threads miss one new skeleton at once) and the lexer's
accounting (in an ``oltp_durable`` run, ``tokenize`` runs only where a
template is missed).
"""

import os
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_parse_cache import DML_AND_DDL
from test_sql_conformance import CASES

from repro.core import BridgeScope, MinidbBinding
from repro.mcp import ToolCall
from repro.minidb import Database, analyze
from repro.minidb import ast_nodes as ast
from repro.minidb import parser as parser_module
from repro.minidb.analysis import _Binder
from repro.minidb.errors import PermissionDenied, SQLSyntaxError, UnknownColumnError
from repro.minidb.lexer import _TOKEN, NUMBER, STRING, literal_tokens, skeleton
from repro.minidb.parser import PARSE_CACHE_MAX_TEXT, _Parser, parse, parse_cache_stats

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tests" / "differential"))
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
from e2ebench import harness, spec  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402
from test_sqlite_crosscheck import NULL_FREE_SHAPES, PREDICATES, SHAPES  # noqa: E402

STRESS_THREADS = int(os.environ.get("REPRO_STRESS_THREADS", "6"))


# --------------------------------------------------------------------------
# the corpus
# --------------------------------------------------------------------------


def _sql_texts(value):
    """Every string under an ``sql`` key of a tool call's (nested) args."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key == "sql" and isinstance(item, str):
                yield item
            else:
                yield from _sql_texts(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _sql_texts(item)


@pytest.fixture(scope="module")
def e2e_corpus(tmp_path_factory):
    """(texts, catalog) of each e2e workload at smoke size: its scripted SQL
    and the catalog it runs against."""
    corpus = []
    for name, workload_class in WORKLOADS.items():
        workload = workload_class(7, spec.SMOKE[name], str(tmp_path_factory.mktemp(name)))
        texts = set()
        for client in range(workload.clients):
            for episode in workload.script(client):
                if episode.prelude:
                    texts.add(episode.prelude)
                for step in episode.steps:
                    texts.update(_sql_texts(step.call.args))
        workload.build()
        catalog = workload.db.catalog
        workload.close()
        corpus.append((sorted(texts), catalog))
    return corpus


DIFFERENTIAL = [
    shape.format(p=predicate.format(q=qualifier))
    for qualifier, shape, _ in SHAPES + NULL_FREE_SHAPES
    for predicate in PREDICATES
]
TEST_CORPUS = [sql for sql, _ in CASES] + DIFFERENTIAL + DML_AND_DDL


@pytest.fixture(scope="module")
def catalog():
    """The schema the conformance, differential and DML/DDL texts name."""
    db = Database(owner="admin")
    admin = db.connect("admin")
    for ddl in [
        "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, c TEXT)",
        "CREATE TABLE u (id INT, a INT, d TEXT)",
        "CREATE VIEW v AS SELECT id, a FROM t",
        "CREATE TABLE sales (id INT PRIMARY KEY, amount INT)",
        "CREATE TABLE notes (id INT PRIMARY KEY, body TEXT, sale INT, tag TEXT)",
        "CREATE INDEX ix_notes_tag ON notes (tag)",
    ]:
        admin.execute(ddl)
    return db.catalog


def columnless_twin(catalog):
    """A catalog with ``catalog``'s table names and none of their columns:
    under it a bare column binds nowhere, so nearly every statement's
    analysis differs from its analysis under ``catalog``."""
    db = Database(owner="admin")
    admin = db.connect("admin")
    for schema in catalog.tables.values():
        admin.execute(f'CREATE TABLE "{schema.name}" (twin_only INT)')
    return db.catalog


def literal_spans(sql):
    """(start, end) of each NUMBER / STRING token in ``sql``."""
    spans = []
    for match in _TOKEN.finditer(sql):
        kind = match.lastgroup
        if kind in (NUMBER, STRING):
            spans.append((match.start(kind), match.end(kind)))
        elif kind == "EOF":
            break
    return spans


def substituted(sql, renderings):
    """``sql`` with its literal tokens replaced, left to right, by ``renderings``."""
    out, last = [], 0
    for (start, end), text in zip(literal_spans(sql), renderings):
        out.append(sql[last:start])
        out.append(text)
        last = end
    out.append(sql[last:])
    return "".join(out)


def same_kind(sql, bump):
    """``sql`` with every literal replaced by another of the same token
    kind and Python type: an integer stays an integer (so a LIMIT stays
    valid), a real becomes an integral real (``1.5`` becomes ``2.0``, what
    a lossy rebind would turn into ``2``), a string a string."""
    renderings = []
    for start, end in literal_spans(sql):
        text = sql[start:end]
        if text.startswith("'"):
            renderings.append("'" + f"{text[1:-1]}''x{bump}" + "'")
        elif any(mark in text for mark in ".eE"):
            renderings.append(repr(float(int(float(text)) + bump)))
        else:
            renderings.append(str(int(text) + bump))
    return substituted(sql, renderings)


def fresh(sql):
    return _Parser(sql).parse_one()


def fresh_analysis(stmt, catalog):
    return _Binder(catalog, None if catalog is None else catalog.version).run(stmt)


def _nodes(node):
    """The AST nodes under ``node`` in tree order (field order, depth first)."""
    if isinstance(node, (list, tuple)):
        for part in node:
            yield from _nodes(part)
    elif hasattr(node, "__dataclass_fields__"):
        yield node
        for name in node.__dataclass_fields__:
            yield from _nodes(getattr(node, name))


def bound_values(stmt, binding):
    """``binding`` read along ``stmt`` in tree order, by value: what it
    says of each column reference and star, then its error."""
    values = []
    for node in _nodes(stmt):
        if type(node) is ast.ColumnRef:
            values.append((binding.slots.get(id(node)), binding.order.get(id(node))))
        elif type(node) is ast.Star:
            items = binding.stars.get(id(node), ())
            values.append([(item.alias, binding.slots.get(id(item.expr))) for item in items])
    error = binding.error
    values.append(None if error is None else (type(error), error.message))
    return values


def assert_analysis_is_fresh(stmt, expected, catalog):
    """``analyze(stmt)`` equals a fresh analysis of the fresh parse
    ``expected``, footprint and binding alike."""
    cached, new = analyze(stmt, catalog), fresh_analysis(expected, catalog)
    assert cached == new
    assert bound_values(stmt, cached.binding) == bound_values(expected, new.binding)


def check_text(sql, catalogs):
    """The oracle for one text: ``parse`` ≡ a fresh parse, ``analyze`` ≡ a
    fresh analysis under each of ``catalogs`` in turn. Returns the
    statement, or ``None`` when the text does not parse (then both must
    raise the same error)."""
    try:
        expected = fresh(sql)
    except SQLSyntaxError as error:
        with pytest.raises(SQLSyntaxError) as caught:
            parse(sql)
        assert str(caught.value) == str(error)
        return None
    stmt = parse(sql)
    assert stmt == expected, sql
    assert repr(stmt) == repr(expected), sql
    for cat in catalogs:
        assert_analysis_is_fresh(stmt, expected, cat)
    return stmt


# --------------------------------------------------------------------------
# the oracle
# --------------------------------------------------------------------------


def test_bound_statements_and_cached_analyses_match_fresh_ones(e2e_corpus, catalog):
    """Every corpus text and two same-kind variants of it (template hits
    unless a LIMIT / OFFSET / type length changed), each analysed under its
    catalog, a columnless twin of it, no catalog, and its catalog again —
    all checked against fresh work."""
    corpus = [(texts, cat) for texts, cat in e2e_corpus] + [(TEST_CORPUS, catalog)]
    before = parse_cache_stats()
    checked = 0
    for texts, cat in corpus:
        # a cache that ignores the catalog version answers the twin's and
        # the catalog-less analysis from the catalog's
        catalogs = (cat, columnless_twin(cat), None, cat)
        for sql in texts:
            for variant in (sql, same_kind(sql, 1), same_kind(sql, 2)):
                check_text(variant, catalogs)
                checked += 1
    after = parse_cache_stats()
    assert checked > 1000
    # the variants really were bound from templates, and analyses shared
    assert after["template_hits"] - before["template_hits"] > checked // 3
    assert after["analysis_hits"] - before["analysis_hits"] > checked // 3


#: literal texts by token kind: numbers (unsigned, so each stays one NUMBER
#: token) and strings with their quotes doubled
NUMBER_TEXTS = st.one_of(
    st.integers(min_value=0, max_value=10**20).map(str),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1.", ".5", "2.5E-3", "0", "007", "1e5", "1E+2", "7.0"]),
)
STRING_TEXTS = st.one_of(
    st.text(max_size=8).map(lambda s: "'" + s.replace("'", "''") + "'"),
    st.sampled_from(["''''", "'it''s'", "''", "' '' '", "'#'", "'$'", "'--'", "'/*'", "'\"'"]),
)


def _literal_renderings():
    keywords = st.sampled_from(["NULL", "TRUE", "FALSE", "null", "True"])
    signed = st.tuples(st.sampled_from(["-", "+", "- "]), NUMBER_TEXTS).map("".join)
    return st.one_of(NUMBER_TEXTS, STRING_TEXTS, keywords, signed)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_literal_substitutions_match_fresh_parses(data, e2e_corpus, catalog):
    texts, cat = data.draw(
        st.sampled_from([(TEST_CORPUS, catalog)] + list(e2e_corpus)), label="corpus"
    )
    sql = data.draw(st.sampled_from(texts).filter(literal_spans), label="sql")
    renderings = data.draw(
        st.lists(_literal_renderings(), min_size=len(literal_spans(sql)),
                 max_size=len(literal_spans(sql))),
        label="literals",
    )
    check_text(sql, (cat,))  # the template, from the original text
    check_text(substituted(sql, renderings), (cat, None))


#: texts whose literals the skeleton property varies beyond the corpus: a
#: number after a sign, pinned ORDER BY ordinals and type lengths, counts
SIGNED_AND_PINNED = [
    "SELECT -1 + a, - 2.5 * b, +.5 FROM t WHERE c = 'x' ORDER BY 1 LIMIT 3 OFFSET 1",
    "SELECT CAST(a AS VARCHAR(10)) AS v, b FROM t WHERE b > -.5 ORDER BY 2 DESC, 'k'",
    "SELECT a FROM t WHERE c IN ('a', 'b''c', '') AND b BETWEEN -1e3 AND 2.5E-3",
    "CREATE TABLE skeletal (id INT PRIMARY KEY, name VARCHAR(40) DEFAULT 'n', w REAL DEFAULT -1.)",
]


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_texts_sharing_a_skeleton_parse_like_fresh_ones(data, e2e_corpus, catalog):
    """No ``max_examples`` of its own: CI's ``ci-deep`` profile runs it at
    5,000 examples."""
    texts, cat = data.draw(
        st.sampled_from([(TEST_CORPUS + SIGNED_AND_PINNED, catalog)] + list(e2e_corpus)),
        label="corpus",
    )
    sql = data.draw(st.sampled_from(texts).filter(literal_spans), label="sql")
    key, _ = skeleton(sql)
    check_text(sql, (cat,))  # the template, from the original text
    kinds = [kind for kind, _, _ in literal_tokens(sql)]
    for _ in range(2):
        renderings = [
            data.draw(STRING_TEXTS if kind == STRING else NUMBER_TEXTS, label=kind)
            for kind in kinds
        ]
        variant = substituted(sql, renderings)
        # ``t.5`` → ``t5`` would be another skeleton; the corpus has none
        assert skeleton(variant)[0] == key, variant
        check_text(variant, (cat, None))


def test_a_rejected_text_never_binds_from_a_template():
    """A text the lexer rejects can have an accepted text's skeleton (a
    marker is a character of its own), never with its literal count."""
    for accepted, rejected in [
        ("SELECT 1 FROM t", "SELECT # FROM t"),
        ("SELECT '#', 1 FROM t", "SELECT $, 1 FROM t"),
        ("SELECT a FROM t WHERE b = 2 -- $", "SELECT a FROM t WHERE b = # -- $"),
    ]:
        parse(accepted)
        assert skeleton(rejected)[0] == skeleton(accepted)[0]
        with pytest.raises(SQLSyntaxError, match="illegal character"):
            parse(rejected)


def test_a_text_whose_lexer_and_skeleton_disagree_is_never_kept(monkeypatch):
    """No such text is known (the skeleton property), so the disagreement
    is planted: the skeleton regex is made to misplace a literal. The text
    parses right, is counted ``untemplated`` every time, and neither it nor
    its skeleton is remembered."""
    real = parser_module.literal_tokens

    def misplaced(sql):
        return [(kind, value, pos + 1) for kind, value, pos in real(sql)]

    monkeypatch.setattr(parser_module, "literal_tokens", misplaced)
    sql = "SELECT a AS untemplated_probe FROM t WHERE b = {}"
    before = parse_cache_stats()
    for n in (1, 1, 2):
        assert repr(parse(sql.format(n))) == repr(fresh(sql.format(n)))
    after = parse_cache_stats()
    assert after["untemplated"] - before["untemplated"] == 3
    assert after["template_misses"] == before["template_misses"]
    assert after["hits"] == before["hits"]
    monkeypatch.setattr(parser_module, "literal_tokens", real)
    parse(sql.format(3))
    assert parse_cache_stats()["template_misses"] == after["template_misses"] + 1


def test_integral_reals_keep_their_type():
    """``1.0`` bound into an integer template (and back) stays a real, and a
    string of digits stays a string: the case a lossy rebind gets wrong."""
    for texts in [
        ["SELECT 1 + x FROM t WHERE a = 2", "SELECT 1.0 + x FROM t WHERE a = 2.0",
         "SELECT 3 + x FROM t WHERE a = 1e0"],
        ["SELECT '1' FROM t LIMIT 1", "SELECT '1.0' FROM t LIMIT 1"],
    ]:
        for sql in texts + texts[::-1]:
            check_text(sql, (None,))


# --------------------------------------------------------------------------
# LIMIT / OFFSET counts are slots
# --------------------------------------------------------------------------


def test_alternating_counts_share_one_template():
    """Texts that differ only in their LIMIT / OFFSET counts are one
    template: each binds, none is parsed again."""
    database = Database(owner="admin")
    admin = database.connect("admin")
    admin.execute("CREATE TABLE sales (id INT PRIMARY KEY, amount INT)")
    admin.execute("INSERT INTO sales VALUES (1, 30), (2, 160), (3, 5)")
    sql = "SELECT id AS count_probe FROM sales ORDER BY id LIMIT {} OFFSET {}"
    admin.execute(sql.format(5, 0))  # the template's one parse
    before = parse_cache_stats()
    answers = [
        admin.execute(sql.format(limit, offset)).rows
        for limit, offset in [(1, 0), (2, 0), (1, 1), (5, 0), (2, 1), (1, 0)]
    ]
    after = parse_cache_stats()
    assert after["template_misses"] == before["template_misses"]
    # (5, 0) and the second (1, 0) are text hits
    assert after["template_hits"] - before["template_hits"] == 4
    # and every execution runs the one plan the first prepared
    assert after["plan_misses"] == before["plan_misses"]
    assert after["plan_hits"] - before["plan_hits"] == 6
    assert answers == [[(1,)], [(1,), (2,)], [(2,)], [(1,), (2,), (3,)], [(2,), (3,)], [(1,)]]
    for limit, offset in [(1, 0), (2, 1)]:
        text = sql.format(limit, offset)
        assert parse(text) == fresh(text)
        assert repr(parse(text)) == repr(fresh(text))


#: (text, the error a fresh parse raised before counts were slots)
BAD_COUNTS = [
    ("SELECT id FROM sales LIMIT -1",
     "42601: expected integer after LIMIT near '-' (position 27) in: "
     "SELECT id FROM sales LIMIT -1"),
    ("SELECT id FROM sales LIMIT 2.5",
     "42601: LIMIT requires an integer near '<end of input>' (position 30) in: "
     "SELECT id FROM sales LIMIT 2.5"),
    ("SELECT id FROM sales OFFSET 'x'",
     "42601: expected integer after OFFSET near 'x' (position 28) in: "
     "SELECT id FROM sales OFFSET 'x'"),
    ("SELECT id FROM sales LIMIT 1e3",
     "42601: LIMIT requires an integer near '<end of input>' (position 30) in: "
     "SELECT id FROM sales LIMIT 1e3"),
    ("SELECT id FROM sales LIMIT 3 OFFSET 2.0",
     "42601: OFFSET requires an integer near '<end of input>' (position 39) in: "
     "SELECT id FROM sales LIMIT 3 OFFSET 2.0"),
]  # fmt: skip


@pytest.mark.parametrize("text, message", BAD_COUNTS)
def test_a_count_that_is_no_integer_raises_as_before(text, message):
    # an integer count first, so the bad one meets a template of its tokens
    parse("SELECT id FROM sales LIMIT 7 OFFSET 1")
    parse("SELECT id FROM sales LIMIT 7")
    before = parse_cache_stats()
    for _ in range(2):
        with pytest.raises(SQLSyntaxError) as raised:
            parse(text)
        assert str(raised.value) == message
    assert parse_cache_stats()["template_entries"] >= before["template_entries"]
    assert parse("SELECT id FROM sales LIMIT 7 OFFSET 1").limit == 7


# --------------------------------------------------------------------------
# invalidation: the same template, another literal
# --------------------------------------------------------------------------


@pytest.fixture
def db():
    database = Database(owner="admin")
    admin = database.connect("admin")
    admin.execute("CREATE TABLE sales (id INT PRIMARY KEY, amount INT)")
    admin.execute("CREATE TABLE refunds (id INT PRIMARY KEY, note TEXT)")
    admin.execute("INSERT INTO sales VALUES (1, 30), (2, 160)")
    admin.execute("INSERT INTO refunds VALUES (1, 'late'), (2, 'broken')")
    database.create_user("viewer")
    admin.execute("GRANT SELECT ON sales TO viewer")
    admin.execute("GRANT SELECT (id, note) ON refunds TO viewer")
    return database


def test_a_template_is_rejected_after_revoke_by_both_layers(db):
    sql = "SELECT id, amount FROM sales WHERE amount > {}"
    bridge = BridgeScope(MinidbBinding.for_user(db, "viewer"))
    session = db.connect("viewer")
    assert not bridge.call(ToolCall("select", {"sql": sql.format(10)})).is_error
    assert session.execute(sql.format(11)).rows == [(1, 30), (2, 160)]
    db.connect("admin").execute("REVOKE SELECT ON sales FROM viewer")

    hits = parse_cache_stats()["template_hits"]
    rejected_before = bridge.verifier.rejected
    result = bridge.call(ToolCall("select", {"sql": sql.format(12)}))
    assert result.is_error and "permission denied" in result.content
    assert bridge.verifier.rejected == rejected_before + 1
    with pytest.raises(PermissionDenied):
        session.execute(sql.format(13))
    # both texts were bound from the template, not parsed
    assert parse_cache_stats()["template_hits"] == hits + 2


def test_a_template_select_star_sees_a_recreated_table(db):
    sql = "SELECT * FROM sales WHERE id >= {}"
    admin = db.connect("admin")
    bridge = BridgeScope(MinidbBinding.for_user(db, "admin"))
    assert admin.execute(sql.format(1)).columns == ["id", "amount"]
    assert bridge.call(ToolCall("select", {"sql": sql.format(2)})).metadata["rows"] == [(2, 160)]

    admin.execute("DROP TABLE sales")
    admin.execute("CREATE TABLE sales (id INT, units INT, note TEXT)")
    admin.execute("INSERT INTO sales VALUES (7, 3, NULL)")

    result = admin.execute(sql.format(3))
    assert (result.columns, result.rows) == (["id", "units", "note"], [(7, 3, None)])
    assert bridge.call(ToolCall("select", {"sql": sql.format(4)})).metadata["rows"] == [
        (7, 3, None)
    ]


def test_a_template_select_star_sees_an_added_column(db):
    sql = "SELECT * FROM sales WHERE id = {}"
    admin = db.connect("admin")
    assert admin.execute(sql.format(1)).rows == [(1, 30)]
    admin.execute("ALTER TABLE sales ADD COLUMN region TEXT DEFAULT 'west'")
    result = admin.execute(sql.format(2))
    assert (result.columns, result.rows) == (["id", "amount", "region"], [(2, 160, "west")])


#: ``amount`` is only in ``sales`` — until a schema change gives ``refunds``
#: one too, when it is attributed to both. An added column is outside the
#: viewer's column grant on ``refunds``, which refuses it before the
#: executor would call it ambiguous; a renamed ``note`` keeps its grant (as
#: in PostgreSQL), so the name is ambiguous
JOINED = "SELECT amount FROM sales JOIN refunds ON sales.id = refunds.id WHERE sales.id = {}"


@pytest.mark.parametrize(
    "change, error, message",
    [
        ("ALTER TABLE refunds ADD COLUMN amount INT", PermissionDenied, "refunds"),
        ("ALTER TABLE refunds RENAME COLUMN note TO amount", UnknownColumnError,
         "ambiguous"),
    ],
)
def test_a_schema_change_reaches_the_next_call_of_a_template(db, change, error, message):
    viewer = db.connect("viewer")
    assert viewer.execute(JOINED.format(1)).rows == [(30,)]
    db.connect("admin").execute(change)
    with pytest.raises(error) as denied:
        viewer.execute(JOINED.format(2))
    assert message in str(denied.value)


def test_a_rolled_back_add_column_is_undone_for_the_analysis_too(db):
    viewer, admin = db.connect("viewer"), db.connect("admin")
    assert viewer.execute(JOINED.format(1)).rows == [(30,)]
    admin.execute("BEGIN")
    admin.execute("ALTER TABLE refunds ADD COLUMN amount INT")
    with pytest.raises(PermissionDenied):
        viewer.execute(JOINED.format(2))
    admin.execute("ROLLBACK")
    # the undo gave the catalog a new version: the analysis from inside the
    # transaction is not served again
    assert viewer.execute(JOINED.format(2)).rows == [(160,)]


def test_drop_index_resolves_the_index_as_it_is_now(db):
    """``DROP INDEX`` needs DROP on the index's table, looked up in the
    catalog: the same text after the index moved to another table."""
    admin = db.connect("admin")
    db.create_user("janitor")
    admin.execute("GRANT DROP ON sales TO janitor")
    admin.execute("CREATE INDEX ix_amount ON sales (amount)")
    sql = "DROP INDEX ix_amount"
    assert [(a.action, a.obj) for a in analyze(parse(sql), db.catalog).accesses] == [
        ("DROP", "sales")
    ]
    admin.execute(sql)
    admin.execute("CREATE INDEX ix_amount ON refunds (note)")
    with pytest.raises(PermissionDenied) as denied:
        db.connect("janitor").execute(sql)
    assert "refunds" in str(denied.value)


# --------------------------------------------------------------------------
# concurrency
# --------------------------------------------------------------------------


def test_threads_binding_one_template_each_get_their_own_values(db):
    """``STRESS_THREADS`` threads bind one template with distinct literals,
    parse and execute; each statement, analysis and result is its own."""
    db.connect("admin").execute("CREATE TABLE tags (id INT PRIMARY KEY, tag TEXT)")
    sql = "SELECT {k} AS k, 'w{k}-{n}' AS w, amount + {n}.5 FROM sales WHERE id = {row}"
    rounds = 200
    wrong, finished = [], []

    def work(k):
        session = db.connect("admin")
        for n in range(rounds):
            text = sql.format(k=k, n=n, row=1 + n % 2)
            stmt = parse(text)
            if repr(stmt) != repr(fresh(text)):
                wrong.append(("parse", text))
            try:
                assert_analysis_is_fresh(stmt, fresh(text), db.catalog)
            except AssertionError:
                wrong.append(("analyze", text))
            expected = [(k, f"w{k}-{n}", (30, 160)[n % 2] + n + 0.5)]
            if session.execute(text).rows != expected:
                wrong.append(("execute", text))
            # churn: a schema change every few statements, so analyses are
            # recomputed and stored while other threads read them
            if k == 0 and n % 10 == 0:
                session.execute(f"INSERT INTO tags (id, tag) VALUES ({n}, 't{n}')")
                session.execute(f"ALTER TABLE tags ADD COLUMN c{n} INT")
        finished.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=work, args=(k,), daemon=True)
            for k in range(STRESS_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert sorted(finished) == list(range(STRESS_THREADS))


def test_threads_racing_on_a_new_skeleton_each_get_a_fresh_parse():
    """``STRESS_THREADS`` threads miss one new skeleton at the same moment,
    each with its own literals: every one gets its own text's statement,
    each miss is counted once, and the skeleton then binds."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_number in range(10):
            sql = (
                f"SELECT a + {{n}} AS race_{round_number}_probe, 'r{{n}}' FROM t "
                "WHERE b = {n}.5 ORDER BY a LIMIT {n}"
            )
            texts = [sql.format(n=k + 1) for k in range(STRESS_THREADS)]
            barrier = threading.Barrier(STRESS_THREADS)
            results = {}

            def work(k):
                barrier.wait(timeout=60.0)
                results[k] = parse(texts[k])

            before = parse_cache_stats()
            threads = [
                threading.Thread(target=work, args=(k,), daemon=True)
                for k in range(STRESS_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            after = parse_cache_stats()
            assert not any(thread.is_alive() for thread in threads)
            for k, text in enumerate(texts):
                assert repr(results[k]) == repr(fresh(text)), text
            misses = after["template_misses"] - before["template_misses"]
            hits = after["template_hits"] - before["template_hits"]
            assert 1 <= misses and misses + hits == STRESS_THREADS
            assert after["untemplated"] == before["untemplated"]
            later = sql.format(n=STRESS_THREADS + 7)
            assert repr(parse(later)) == repr(fresh(later))
            assert parse_cache_stats()["template_hits"] == after["template_hits"] + 1
    finally:
        sys.setswitchinterval(interval)


def test_only_a_template_miss_runs_the_lexer(monkeypatch, tmp_path):
    """Through a whole ``oltp_durable`` run (setup, warm-up, measured
    episodes), ``tokenize`` runs once for each template miss, untemplated
    text or syntax error of :func:`parse`, and otherwise only for
    ``parse_script`` or a text over ``PARSE_CACHE_MAX_TEXT``."""
    calls = []
    real = parser_module.tokenize

    def spy(sql):
        # (text, the function that called tokenize, the one that called it)
        calls.append((sql, sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name))
        return real(sql)

    monkeypatch.setattr(parser_module, "tokenize", spy)
    before = parse_cache_stats()
    record = harness.run(
        WORKLOADS["oltp_durable"], seed=3, seconds=0, trace=False, sizing=spec.SMOKE,
        out_dir=str(tmp_path), episodes=300,
    )
    after = parse_cache_stats()
    assert record["correct"] and record["failures"] == []
    from_parse = [sql for sql, caller, _ in calls if caller == "parse"]
    for sql, caller, outer in calls:
        if caller != "parse":
            # a _Parser built without tokens
            assert caller == "__init__"
            assert outer == "parse_script" or (outer == "parse" and len(sql) > PARSE_CACHE_MAX_TEXT)
    errors = 0
    for sql in from_parse:
        try:
            fresh(sql)
        except SQLSyntaxError:
            errors += 1
    misses = after["template_misses"] - before["template_misses"]
    untemplated = after["untemplated"] - before["untemplated"]
    assert len(from_parse) == misses + untemplated + errors
    # and nearly all of the run's SQL was a text hit or bound from a template
    assert after["template_hits"] - before["template_hits"] > 10 * len(from_parse)
