"""Edge-case and failure-injection tests for the minidb engine."""

import pytest

from repro.minidb import Database
from repro.minidb.errors import (
    ExecutionError,
    SQLSyntaxError,
    TypeMismatchError,
    UnknownColumnError,
)


@pytest.fixture
def s():
    return Database(owner="a").connect("a")


class TestThreeValuedLogic:
    @pytest.mark.parametrize(
        "sql,expected",
        [
            ("SELECT NULL AND TRUE", None),
            ("SELECT NULL AND FALSE", False),
            ("SELECT NULL OR TRUE", True),
            ("SELECT NULL OR FALSE", None),
            ("SELECT NOT NULL", None),
            ("SELECT NULL = NULL", None),
            ("SELECT NULL <> NULL", None),
            ("SELECT NULL IS NULL", True),
            ("SELECT NULL IS NOT NULL", False),
            ("SELECT 1 + NULL", None),
            ("SELECT NULL || 'x'", None),
            ("SELECT NULL BETWEEN 1 AND 2", None),
            ("SELECT NULL LIKE 'a%'", None),
            ("SELECT 1 IN (NULL)", None),
            ("SELECT 1 IN (1, NULL)", True),
            ("SELECT 1 NOT IN (2, NULL)", None),
        ],
    )
    def test_null_semantics(self, s, sql, expected):
        assert s.scalar(sql) == expected

    def test_where_null_excludes_row(self, s):
        s.execute("CREATE TABLE t (a INT)")
        s.execute("INSERT INTO t VALUES (NULL), (1)")
        assert len(s.execute("SELECT * FROM t WHERE a = a")) == 1


class TestEmptyAndDegenerate:
    def test_select_from_empty_table(self, s):
        s.execute("CREATE TABLE t (a INT)")
        assert s.execute("SELECT * FROM t").rows == []

    def test_aggregate_over_empty_grouped(self, s):
        s.execute("CREATE TABLE t (a INT, b INT)")
        assert s.execute("SELECT a, SUM(b) FROM t GROUP BY a").rows == []

    def test_join_with_empty_side(self, s):
        s.execute("CREATE TABLE a (x INT)")
        s.execute("CREATE TABLE b (x INT)")
        s.execute("INSERT INTO a VALUES (1)")
        assert s.execute("SELECT * FROM a JOIN b ON a.x = b.x").rows == []
        assert s.execute("SELECT * FROM a LEFT JOIN b ON a.x = b.x").rows == [(1, None)]

    def test_update_no_matches(self, s):
        s.execute("CREATE TABLE t (a INT)")
        assert s.execute("UPDATE t SET a = 1 WHERE a = 99").rowcount == 0

    def test_delete_from_empty(self, s):
        s.execute("CREATE TABLE t (a INT)")
        assert s.execute("DELETE FROM t").rowcount == 0

    def test_table_with_single_null_row(self, s):
        s.execute("CREATE TABLE t (a INT, b TEXT)")
        s.execute("INSERT INTO t VALUES (NULL, NULL)")
        assert s.execute("SELECT * FROM t").rows == [(None, None)]

    def test_group_by_null_key_groups_together(self, s):
        s.execute("CREATE TABLE t (k TEXT, v INT)")
        s.execute("INSERT INTO t VALUES (NULL, 1), (NULL, 2), ('a', 3)")
        rows = dict(s.execute("SELECT k, SUM(v) FROM t GROUP BY k").rows)
        assert rows[None] == 3
        assert rows["a"] == 3


class TestMixedTypeBehavior:
    def test_int_float_comparison(self, s):
        assert s.scalar("SELECT 1 = 1.0") is True
        assert s.scalar("SELECT 2 > 1.5") is True

    def test_string_number_equality_is_false(self, s):
        assert s.scalar("SELECT '1' = 1") is False

    def test_string_number_ordering_rejected(self, s):
        with pytest.raises(ExecutionError):
            s.execute("SELECT 'a' < 1")

    def test_group_key_distinguishes_types(self, s):
        s.execute("CREATE TABLE t (v TEXT)")
        s.execute("INSERT INTO t VALUES ('1')")
        s.execute("CREATE TABLE u (v INT)")
        s.execute("INSERT INTO u VALUES (1)")
        rows = s.execute(
            "SELECT v FROM t UNION SELECT v FROM u"
        ).rows
        assert len(rows) == 2  # '1' and 1 are distinct


class TestErrorRecovery:
    def test_session_usable_after_syntax_error(self, s):
        with pytest.raises(SQLSyntaxError):
            s.execute("SELEKT 1")
        assert s.scalar("SELECT 1") == 1

    def test_session_usable_after_type_error(self, s):
        s.execute("CREATE TABLE t (a INT)")
        with pytest.raises(TypeMismatchError):
            s.execute("INSERT INTO t VALUES ('zzz')")
        s.execute("INSERT INTO t VALUES (1)")
        assert s.scalar("SELECT COUNT(*) FROM t") == 1

    def test_failed_ddl_in_transaction_keeps_tx(self, s):
        s.execute("CREATE TABLE t (a INT)")
        s.execute("BEGIN")
        s.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(Exception):
            s.execute("CREATE TABLE t (a INT)")  # duplicate
        assert s.in_transaction
        s.execute("COMMIT")
        assert s.scalar("SELECT COUNT(*) FROM t") == 1

    def test_statement_log_records_attempts(self, s):
        before = s.statement_count
        with pytest.raises(SQLSyntaxError):
            s.execute("BROKEN")
        assert s.statement_count == before + 1  # a failed parse still counts


class TestIdentifierResolution:
    def test_alias_shadows_table_name(self, s):
        s.execute("CREATE TABLE t (a INT)")
        s.execute("INSERT INTO t VALUES (5)")
        assert s.execute("SELECT x.a FROM t x").rows == [(5,)]

    def test_original_name_unavailable_when_aliased(self, s):
        s.execute("CREATE TABLE t (a INT)")
        s.execute("INSERT INTO t VALUES (5)")
        with pytest.raises(UnknownColumnError):
            s.execute("SELECT t.a FROM t x")

    def test_case_insensitive_columns(self, s):
        s.execute("CREATE TABLE t (MyCol INT)")
        s.execute("INSERT INTO t VALUES (1)")
        assert s.scalar("SELECT mycol FROM t") == 1
        assert s.scalar("SELECT MYCOL FROM t") == 1

    def test_quoted_identifier_preserves_case(self, s):
        s.execute('CREATE TABLE t ("Weird Name" INT)')
        s.execute("INSERT INTO t VALUES (1)")
        assert s.scalar('SELECT "Weird Name" FROM t') == 1

    def test_correlated_name_resolution_prefers_inner(self, s):
        s.execute("CREATE TABLE outer_t (v INT)")
        s.execute("CREATE TABLE inner_t (v INT)")
        s.execute("INSERT INTO outer_t VALUES (1)")
        s.execute("INSERT INTO inner_t VALUES (2)")
        # unqualified v inside the subquery binds to inner_t
        assert s.execute(
            "SELECT (SELECT MAX(v) FROM inner_t) FROM outer_t"
        ).rows == [(2,)]


class TestLargerScans:
    def test_thousand_row_aggregate(self, s):
        s.execute("CREATE TABLE t (a INT)")
        heap = s.db.heap("t")
        for i in range(1000):
            heap.insert({"a": i})
        assert s.scalar("SELECT SUM(a) FROM t") == sum(range(1000))
        assert s.scalar("SELECT COUNT(*) FROM t WHERE a % 7 = 0") == len(
            [i for i in range(1000) if i % 7 == 0]
        )

    def test_self_join_quadratic_but_correct(self, s):
        s.execute("CREATE TABLE t (a INT)")
        for i in range(30):
            s.db.heap("t").insert({"a": i})
        count = s.scalar(
            "SELECT COUNT(*) FROM t x JOIN t y ON x.a < y.a"
        )
        assert count == 30 * 29 // 2
