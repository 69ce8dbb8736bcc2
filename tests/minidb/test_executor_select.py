"""Integration tests for SELECT execution."""

import pytest

from repro.minidb import Database
from repro.minidb.errors import ExecutionError, UnknownColumnError, UnknownTableError


@pytest.fixture
def db():
    database = Database(owner="admin")
    s = database.connect("admin")
    s.execute("CREATE TABLE dept (id INT PRIMARY KEY, name TEXT NOT NULL)")
    s.execute(
        "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, salary FLOAT, "
        "dept_id INT REFERENCES dept(id))"
    )
    s.execute("INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')")
    s.execute(
        "INSERT INTO emp VALUES (1, 'alice', 100.0, 1), (2, 'bob', 80.0, 1), "
        "(3, 'carol', 90.0, 2), (4, 'dave', NULL, 2)"
    )
    return database


@pytest.fixture
def s(db):
    return db.connect("admin")


class TestProjection:
    def test_select_star(self, s):
        result = s.execute("SELECT * FROM dept")
        assert result.columns == ["id", "name"]
        assert len(result) == 3

    def test_select_columns(self, s):
        result = s.execute("SELECT name, id FROM dept ORDER BY id")
        assert result.columns == ["name", "id"]
        assert result.rows[0] == ("eng", 1)

    def test_expression_projection(self, s):
        result = s.execute("SELECT salary * 2 AS double FROM emp WHERE id = 1")
        assert result.rows == [(200.0,)]
        assert result.columns == ["double"]

    def test_constant_select_no_from(self, s):
        assert s.execute("SELECT 1 + 1").rows == [(2,)]

    def test_qualified_star(self, s):
        result = s.execute(
            "SELECT e.* FROM emp e JOIN dept d ON e.dept_id = d.id WHERE d.id = 2"
        )
        assert result.columns == ["id", "name", "salary", "dept_id"]
        assert len(result) == 2

    def test_default_column_names(self, s):
        result = s.execute("SELECT 1 + 1, UPPER('x')")
        assert result.columns == ["column1", "upper"]

    def test_unknown_column_raises(self, s):
        with pytest.raises(UnknownColumnError):
            s.execute("SELECT missing FROM dept")

    def test_unknown_table_raises(self, s):
        with pytest.raises(UnknownTableError):
            s.execute("SELECT * FROM nope")

    def test_ambiguous_column_raises(self, s):
        with pytest.raises(UnknownColumnError, match="ambiguous"):
            s.execute("SELECT id FROM emp, dept")


class TestFilters:
    def test_where_comparison(self, s):
        assert len(s.execute("SELECT * FROM emp WHERE salary >= 90")) == 2

    def test_null_comparison_filters_row(self, s):
        # dave has NULL salary -> comparison is UNKNOWN -> excluded
        names = [r[0] for r in s.execute("SELECT name FROM emp WHERE salary < 1000")]
        assert "dave" not in names

    def test_is_null(self, s):
        assert s.execute("SELECT name FROM emp WHERE salary IS NULL").rows == [("dave",)]

    def test_is_not_null_count(self, s):
        assert s.scalar("SELECT COUNT(*) FROM emp WHERE salary IS NOT NULL") == 3

    def test_in_list(self, s):
        assert len(s.execute("SELECT * FROM emp WHERE id IN (1, 3)")) == 2

    def test_not_in_with_null_candidate_excludes_all(self, s):
        assert len(s.execute("SELECT * FROM emp WHERE id NOT IN (1, NULL)")) == 0

    def test_between(self, s):
        assert len(s.execute("SELECT * FROM emp WHERE salary BETWEEN 80 AND 90")) == 2

    def test_like(self, s):
        rows = s.execute("SELECT name FROM emp WHERE name LIKE '%a%' ORDER BY name").rows
        assert rows == [("alice",), ("carol",), ("dave",)]

    def test_like_underscore(self, s):
        assert s.execute("SELECT name FROM emp WHERE name LIKE 'b_b'").rows == [("bob",)]

    def test_ilike(self, s):
        assert len(s.execute("SELECT * FROM emp WHERE name ILIKE 'ALICE'")) == 1

    def test_and_or(self, s):
        rows = s.execute(
            "SELECT name FROM emp WHERE dept_id = 1 AND salary > 90 OR name = 'carol' "
            "ORDER BY name"
        ).rows
        assert rows == [("alice",), ("carol",)]


class TestJoins:
    def test_inner_join(self, s):
        result = s.execute(
            "SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept_id = d.id "
            "ORDER BY e.name"
        )
        assert len(result) == 4

    def test_left_join_keeps_unmatched(self, s):
        result = s.execute(
            "SELECT d.name, e.name FROM dept d LEFT JOIN emp e ON e.dept_id = d.id "
            "WHERE e.id IS NULL"
        )
        assert result.rows == [("empty", None)]

    def test_right_join(self, s):
        result = s.execute(
            "SELECT e.name, d.name FROM emp e RIGHT JOIN dept d ON e.dept_id = d.id"
        )
        # 4 matches + 1 unmatched dept
        assert len(result) == 5

    def test_cross_join(self, s):
        assert len(s.execute("SELECT * FROM dept CROSS JOIN dept d2")) == 9

    def test_implicit_cross_join(self, s):
        assert len(s.execute("SELECT * FROM dept, emp")) == 12

    def test_join_condition_with_extra_predicate(self, s):
        result = s.execute(
            "SELECT d.name, e.name FROM dept d "
            "LEFT JOIN emp e ON e.dept_id = d.id AND e.salary > 95 ORDER BY d.id"
        )
        assert result.rows == [("eng", "alice"), ("sales", None), ("empty", None)]

    def test_self_join(self, s):
        result = s.execute(
            "SELECT a.name, b.name FROM emp a JOIN emp b "
            "ON a.dept_id = b.dept_id AND a.id < b.id ORDER BY a.id"
        )
        assert ("alice", "bob") in result.rows


class TestAggregation:
    def test_count_star(self, s):
        assert s.scalar("SELECT COUNT(*) FROM emp") == 4

    def test_count_column_skips_nulls(self, s):
        assert s.scalar("SELECT COUNT(salary) FROM emp") == 3

    def test_count_distinct(self, s):
        assert s.scalar("SELECT COUNT(DISTINCT dept_id) FROM emp") == 2

    def test_sum_avg_min_max(self, s):
        row = s.execute(
            "SELECT SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp"
        ).rows[0]
        assert row == (270.0, 90.0, 80.0, 100.0)

    def test_aggregates_on_empty_input(self, s):
        row = s.execute(
            "SELECT COUNT(*), SUM(salary), AVG(salary) FROM emp WHERE id > 99"
        ).rows[0]
        assert row == (0, None, None)

    def test_group_by(self, s):
        result = s.execute(
            "SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id ORDER BY dept_id"
        )
        assert result.rows == [(1, 2), (2, 2)]

    def test_group_by_expression_key(self, s):
        result = s.execute(
            "SELECT salary > 85, COUNT(*) FROM emp WHERE salary IS NOT NULL "
            "GROUP BY salary > 85 ORDER BY 2"
        )
        assert sorted(result.rows) == [(False, 1), (True, 2)]

    def test_having(self, s):
        result = s.execute(
            "SELECT dept_id FROM emp GROUP BY dept_id HAVING SUM(salary) > 100"
        )
        assert result.rows == [(1,)]

    def test_group_by_with_join(self, s):
        result = s.execute(
            "SELECT d.name, COUNT(e.id) AS n FROM dept d "
            "LEFT JOIN emp e ON e.dept_id = d.id GROUP BY d.name ORDER BY d.name"
        )
        assert result.rows == [("empty", 0), ("eng", 2), ("sales", 2)]

    def test_stddev(self, s):
        value = s.scalar("SELECT STDDEV(salary) FROM emp WHERE dept_id = 1")
        assert value == pytest.approx(14.1421356, rel=1e-6)

    def test_group_concat(self, s):
        value = s.scalar(
            "SELECT GROUP_CONCAT(name) FROM emp WHERE dept_id = 1"
        )
        assert value == "alice,bob"

    def test_aggregate_in_where_rejected(self, s):
        with pytest.raises(ExecutionError):
            s.execute("SELECT * FROM emp WHERE COUNT(*) > 1")


class TestOrderingAndPaging:
    def test_order_by_asc(self, s):
        rows = s.execute("SELECT name FROM emp ORDER BY name").rows
        assert rows == [("alice",), ("bob",), ("carol",), ("dave",)]

    def test_order_by_desc(self, s):
        rows = s.execute("SELECT salary FROM emp ORDER BY salary DESC").rows
        # NULL sorts last in both directions (NULLS LAST policy)
        assert rows == [(100.0,), (90.0,), (80.0,), (None,)]

    def test_nulls_last_ascending(self, s):
        rows = s.execute("SELECT salary FROM emp ORDER BY salary").rows
        assert rows[-1] == (None,)

    def test_order_by_ordinal(self, s):
        rows = s.execute("SELECT name, salary FROM emp ORDER BY 2 DESC LIMIT 1").rows
        assert rows == [("alice", 100.0)]

    def test_order_by_alias(self, s):
        rows = s.execute("SELECT salary * 2 AS d FROM emp ORDER BY d LIMIT 1").rows
        assert rows == [(160.0,)]

    def test_order_by_aggregate(self, s):
        rows = s.execute(
            "SELECT dept_id FROM emp GROUP BY dept_id ORDER BY AVG(salary) DESC"
        ).rows
        assert rows == [(1,), (2,)]

    def test_limit(self, s):
        assert len(s.execute("SELECT * FROM emp LIMIT 2")) == 2

    def test_limit_zero(self, s):
        assert len(s.execute("SELECT * FROM emp LIMIT 0")) == 0

    def test_offset(self, s):
        rows = s.execute("SELECT name FROM emp ORDER BY name LIMIT 2 OFFSET 1").rows
        assert rows == [("bob",), ("carol",)]

    def test_ordinal_out_of_range(self, s):
        with pytest.raises(ExecutionError):
            s.execute("SELECT name FROM emp ORDER BY 9")


class TestDistinctAndSetOps:
    def test_distinct(self, s):
        assert len(s.execute("SELECT DISTINCT dept_id FROM emp")) == 2

    def test_distinct_with_null(self, s):
        s.execute("INSERT INTO emp VALUES (5, 'eve', NULL, NULL)")
        assert len(s.execute("SELECT DISTINCT dept_id FROM emp")) == 3

    def test_union_dedups(self, s):
        result = s.execute("SELECT dept_id FROM emp UNION SELECT id FROM dept")
        assert len(result) == 3

    def test_union_all_keeps_duplicates(self, s):
        result = s.execute("SELECT dept_id FROM emp UNION ALL SELECT id FROM dept")
        assert len(result) == 7

    def test_intersect(self, s):
        result = s.execute("SELECT id FROM dept INTERSECT SELECT dept_id FROM emp")
        assert sorted(result.rows) == [(1,), (2,)]

    def test_except(self, s):
        result = s.execute("SELECT id FROM dept EXCEPT SELECT dept_id FROM emp")
        assert result.rows == [(3,)]

    def test_union_column_count_mismatch(self, s):
        with pytest.raises(ExecutionError):
            s.execute("SELECT id, name FROM dept UNION SELECT id FROM dept")


class TestSubqueries:
    def test_scalar_subquery(self, s):
        rows = s.execute(
            "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)"
        ).rows
        assert rows == [("alice",)]

    def test_in_subquery(self, s):
        rows = s.execute(
            "SELECT name FROM dept WHERE id IN (SELECT dept_id FROM emp) ORDER BY id"
        ).rows
        assert rows == [("eng",), ("sales",)]

    def test_correlated_exists(self, s):
        rows = s.execute(
            "SELECT name FROM dept d WHERE EXISTS "
            "(SELECT 1 FROM emp e WHERE e.dept_id = d.id) ORDER BY d.id"
        ).rows
        assert rows == [("eng",), ("sales",)]

    def test_not_exists(self, s):
        rows = s.execute(
            "SELECT name FROM dept d WHERE NOT EXISTS "
            "(SELECT 1 FROM emp e WHERE e.dept_id = d.id)"
        ).rows
        assert rows == [("empty",)]

    def test_correlated_scalar_subquery(self, s):
        rows = s.execute(
            "SELECT d.name, (SELECT COUNT(*) FROM emp e WHERE e.dept_id = d.id) "
            "FROM dept d ORDER BY d.id"
        ).rows
        assert rows == [("eng", 2), ("sales", 2), ("empty", 0)]

    def test_derived_table(self, s):
        rows = s.execute(
            "SELECT big.name FROM (SELECT name, salary FROM emp WHERE salary > 85) big "
            "ORDER BY big.name"
        ).rows
        assert rows == [("alice",), ("carol",)]

    def test_scalar_subquery_multiple_rows_rejected(self, s):
        with pytest.raises(ExecutionError):
            s.execute("SELECT (SELECT id FROM emp)")


class TestViews:
    def test_view_queries_like_table(self, s):
        s.execute("CREATE VIEW rich AS SELECT name, salary FROM emp WHERE salary > 85")
        rows = s.execute("SELECT name FROM rich ORDER BY name").rows
        assert rows == [("alice",), ("carol",)]

    def test_view_reflects_underlying_changes(self, s):
        s.execute("CREATE VIEW rich AS SELECT name FROM emp WHERE salary > 85")
        s.execute("UPDATE emp SET salary = 200 WHERE name = 'bob'")
        assert ("bob",) in s.execute("SELECT * FROM rich").rows

    def test_view_on_view(self, s):
        s.execute("CREATE VIEW a_names AS SELECT name FROM emp WHERE name LIKE 'a%'")
        s.execute("CREATE VIEW upper_a AS SELECT UPPER(name) AS n FROM a_names")
        assert s.execute("SELECT * FROM upper_a").rows == [("ALICE",)]


class TestDuplicateOutputNames:
    """A derived table or view exposing one name twice: a reference to it
    is ambiguous whether qualified or not — it must never silently read
    one of the two columns (it used to read the last)."""

    DUP = "(SELECT id, dept_id AS id FROM emp)"

    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize(
        "sql",
        [
            f"SELECT d.id FROM {DUP} d WHERE d.id = 4",
            f"SELECT * FROM {DUP} d",
            f"SELECT x.id, y.id FROM emp x JOIN {DUP} y ON x.id = y.id",
            "SELECT v.id FROM dup_v v",
        ],
    )
    def test_qualified_reference_is_ambiguous(self, s, sql, compiled):
        s.execute("CREATE VIEW dup_v AS SELECT id, dept_id AS id FROM emp")
        s.db.planner_options["enable_compiled_predicates"] = compiled
        with pytest.raises(UnknownColumnError, match="'id' is ambiguous"):
            s.execute(sql)

    def test_other_columns_of_the_source_still_resolve(self, s):
        rows = s.execute(
            "SELECT d.name FROM (SELECT id, dept_id AS id, name FROM emp) d"
            " WHERE d.name < 'c' ORDER BY d.name"
        ).rows
        assert rows == [("alice",), ("bob",)]

    def test_ambiguous_name_is_not_pushed_into_the_scan(self, s):
        # no joined row reaches the WHERE, so nothing may evaluate y.id —
        # a pushed-down conjunct would raise from inside y's scan
        sql = f"SELECT x.id FROM emp x, {self.DUP} y WHERE y.id = 2 AND x.id = 99"
        plan = [line for (line,) in s.execute("EXPLAIN " + sql).rows]
        assert plan[1] == "Subquery Scan on y"
        assert s.execute(sql).rows == []
