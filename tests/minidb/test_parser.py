"""Unit tests for the SQL parser."""

import pytest

from repro.minidb import ast_nodes as ast
from repro.minidb.errors import SQLSyntaxError
from repro.minidb.parser import parse, parse_script, statement_action


class TestSelectParsing:
    def test_simple_select(self):
        stmt = parse("SELECT a, b FROM t")
        assert isinstance(stmt, ast.SelectStatement)
        assert len(stmt.items) == 2
        assert stmt.from_sources[0].name == "t"

    def test_select_star(self):
        stmt = parse("SELECT * FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)

    def test_select_qualified_star(self):
        stmt = parse("SELECT t.* FROM t")
        assert stmt.items[0].expr.table == "t"

    def test_select_without_from(self):
        stmt = parse("SELECT 1 + 2")
        assert stmt.from_sources == []

    def test_alias_with_as(self):
        stmt = parse("SELECT a AS x FROM t")
        assert stmt.items[0].alias == "x"

    def test_alias_without_as(self):
        stmt = parse("SELECT a x FROM t")
        assert stmt.items[0].alias == "x"

    def test_table_alias(self):
        stmt = parse("SELECT e.name FROM employees e")
        assert stmt.from_sources[0].alias == "e"
        assert stmt.from_sources[0].binding == "e"

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct is True

    def test_where_clause(self):
        stmt = parse("SELECT a FROM t WHERE a > 5")
        assert isinstance(stmt.where, ast.BinaryOp)
        assert stmt.where.op == ">"

    def test_group_by_having(self):
        stmt = parse("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1")
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_order_by_asc_desc(self):
        stmt = parse("SELECT a FROM t ORDER BY a DESC, b ASC, c")
        assert [o.descending for o in stmt.order_by] == [True, False, False]

    def test_limit_offset(self):
        stmt = parse("SELECT a FROM t LIMIT 10 OFFSET 5")
        assert stmt.limit == 10
        assert stmt.offset == 5

    def test_offset_alone(self):
        assert parse("SELECT a FROM t OFFSET 3").offset == 3

    def test_limit_must_be_integer(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT a FROM t LIMIT x")

    def test_multiple_from_sources(self):
        stmt = parse("SELECT * FROM a, b")
        assert len(stmt.from_sources) == 2

    def test_subquery_in_from(self):
        stmt = parse("SELECT x FROM (SELECT a AS x FROM t) sub")
        assert isinstance(stmt.from_sources[0], ast.SubqueryRef)
        assert stmt.from_sources[0].alias == "sub"

    def test_subquery_in_from_requires_alias(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT x FROM (SELECT a FROM t)")


class TestJoins:
    def test_inner_join(self):
        stmt = parse("SELECT * FROM a JOIN b ON a.id = b.id")
        assert stmt.joins[0].kind == "INNER"
        assert stmt.joins[0].condition is not None

    def test_explicit_inner_join(self):
        assert parse("SELECT * FROM a INNER JOIN b ON a.x = b.x").joins[0].kind == "INNER"

    def test_left_join(self):
        assert parse("SELECT * FROM a LEFT JOIN b ON a.x=b.x").joins[0].kind == "LEFT"

    def test_left_outer_join(self):
        assert parse("SELECT * FROM a LEFT OUTER JOIN b ON a.x=b.x").joins[0].kind == "LEFT"

    def test_right_join(self):
        assert parse("SELECT * FROM a RIGHT JOIN b ON a.x=b.x").joins[0].kind == "RIGHT"

    def test_cross_join_has_no_condition(self):
        stmt = parse("SELECT * FROM a CROSS JOIN b")
        assert stmt.joins[0].kind == "CROSS"
        assert stmt.joins[0].condition is None

    def test_chained_joins(self):
        stmt = parse(
            "SELECT * FROM a JOIN b ON a.x=b.x LEFT JOIN c ON b.y=c.y"
        )
        assert [j.kind for j in stmt.joins] == ["INNER", "LEFT"]

    def test_full_join_rejected(self):
        with pytest.raises(SQLSyntaxError, match="FULL"):
            parse("SELECT * FROM a FULL OUTER JOIN b ON a.x=b.x")

    def test_join_missing_on(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT * FROM a JOIN b")


class TestExpressions:
    def test_operator_precedence(self):
        stmt = parse("SELECT 1 + 2 * 3")
        expr = stmt.items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_parentheses_override_precedence(self):
        expr = parse("SELECT (1 + 2) * 3").items[0].expr
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_and_or_precedence(self):
        expr = parse("SELECT a OR b AND c FROM t").items[0].expr
        assert expr.op == "OR"
        assert expr.right.op == "AND"

    def test_not(self):
        expr = parse("SELECT * FROM t WHERE NOT a = 1").where
        assert isinstance(expr, ast.UnaryOp)
        assert expr.op == "NOT"

    def test_unary_minus(self):
        expr = parse("SELECT -5").items[0].expr
        assert isinstance(expr, ast.UnaryOp)

    def test_string_concat(self):
        expr = parse("SELECT a || b FROM t").items[0].expr
        assert expr.op == "||"

    def test_in_list(self):
        expr = parse("SELECT * FROM t WHERE a IN (1, 2, 3)").where
        assert isinstance(expr, ast.InExpr)
        assert len(expr.candidates) == 3
        assert not expr.negated

    def test_not_in(self):
        expr = parse("SELECT * FROM t WHERE a NOT IN (1)").where
        assert expr.negated

    def test_in_subquery(self):
        expr = parse("SELECT * FROM t WHERE a IN (SELECT b FROM u)").where
        assert isinstance(expr.candidates, ast.SelectStatement)

    def test_between(self):
        expr = parse("SELECT * FROM t WHERE a BETWEEN 1 AND 10").where
        assert isinstance(expr, ast.BetweenExpr)

    def test_not_between(self):
        assert parse("SELECT * FROM t WHERE a NOT BETWEEN 1 AND 2").where.negated

    def test_like(self):
        expr = parse("SELECT * FROM t WHERE name LIKE 'a%'").where
        assert isinstance(expr, ast.LikeExpr)
        assert not expr.case_insensitive

    def test_ilike(self):
        assert parse("SELECT * FROM t WHERE n ILIKE 'A%'").where.case_insensitive

    def test_is_null(self):
        expr = parse("SELECT * FROM t WHERE a IS NULL").where
        assert isinstance(expr, ast.IsNullExpr)
        assert not expr.negated

    def test_is_not_null(self):
        assert parse("SELECT * FROM t WHERE a IS NOT NULL").where.negated

    def test_exists(self):
        expr = parse("SELECT * FROM t WHERE EXISTS (SELECT 1 FROM u)").where
        assert isinstance(expr, ast.ExistsExpr)

    def test_scalar_subquery(self):
        expr = parse("SELECT (SELECT MAX(x) FROM u)").items[0].expr
        assert isinstance(expr, ast.ScalarSubquery)

    def test_case_searched(self):
        expr = parse("SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t").items[0].expr
        assert isinstance(expr, ast.CaseExpr)
        assert expr.operand is None
        assert expr.default is not None

    def test_case_with_operand(self):
        expr = parse("SELECT CASE a WHEN 1 THEN 'one' END FROM t").items[0].expr
        assert expr.operand is not None
        assert expr.default is None

    def test_case_requires_when(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT CASE END FROM t")

    def test_cast(self):
        expr = parse("SELECT CAST(a AS INTEGER) FROM t").items[0].expr
        assert isinstance(expr, ast.CastExpr)
        assert expr.target_type == "INTEGER"

    def test_function_call(self):
        expr = parse("SELECT UPPER(name) FROM t").items[0].expr
        assert isinstance(expr, ast.FunctionCall)
        assert expr.name == "UPPER"

    def test_count_star(self):
        expr = parse("SELECT COUNT(*) FROM t").items[0].expr
        assert isinstance(expr.args[0], ast.Star)

    def test_count_distinct(self):
        expr = parse("SELECT COUNT(DISTINCT a) FROM t").items[0].expr
        assert expr.distinct

    def test_literals(self):
        stmt = parse("SELECT NULL, TRUE, FALSE, 'txt', 7, 1.5")
        values = [item.expr.value for item in stmt.items]
        assert values == [None, True, False, "txt", 7, 1.5]

    def test_qualified_column(self):
        expr = parse("SELECT t.a FROM t").items[0].expr
        assert expr.table == "t"
        assert expr.name == "a"

    def test_inequality_normalized(self):
        assert parse("SELECT * FROM t WHERE a != 1").where.op == "<>"


class TestSetOperations:
    def test_union(self):
        stmt = parse("SELECT a FROM t UNION SELECT b FROM u")
        assert stmt.set_op[0] == "UNION"

    def test_union_all(self):
        assert parse("SELECT a FROM t UNION ALL SELECT a FROM u").set_op[0] == "UNION ALL"

    def test_intersect_except(self):
        assert parse("SELECT a FROM t INTERSECT SELECT a FROM u").set_op[0] == "INTERSECT"
        assert parse("SELECT a FROM t EXCEPT SELECT a FROM u").set_op[0] == "EXCEPT"

    def test_order_by_hoisted_to_outer(self):
        stmt = parse("SELECT a FROM t UNION SELECT a FROM u ORDER BY a LIMIT 3")
        assert stmt.order_by
        assert stmt.limit == 3
        assert not stmt.set_op[1].order_by
        assert stmt.set_op[1].limit is None


class TestDML:
    def test_insert_values(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert stmt.table == "t"
        assert stmt.columns == ["a", "b"]
        assert len(stmt.rows) == 2

    def test_insert_without_columns(self):
        assert parse("INSERT INTO t VALUES (1)").columns is None

    def test_insert_select(self):
        stmt = parse("INSERT INTO t SELECT * FROM u")
        assert stmt.select is not None
        assert stmt.rows is None

    def test_update(self):
        stmt = parse("UPDATE t SET a = 1, b = b + 1 WHERE id = 3")
        assert stmt.table == "t"
        assert [c for c, _ in stmt.assignments] == ["a", "b"]
        assert stmt.where is not None

    def test_update_without_where(self):
        assert parse("UPDATE t SET a = 1").where is None

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE a < 0")
        assert stmt.table == "t"
        assert stmt.where is not None

    def test_delete_all(self):
        assert parse("DELETE FROM t").where is None


class TestDDL:
    def test_create_table_columns(self):
        stmt = parse(
            "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(40) NOT NULL, "
            "price FLOAT DEFAULT 0.0, ok BOOLEAN)"
        )
        assert stmt.table == "t"
        assert len(stmt.columns) == 4
        assert stmt.columns[0].primary_key
        assert stmt.columns[1].not_null
        assert stmt.columns[1].declared_type == "VARCHAR(40)"
        assert stmt.columns[2].default.value == 0.0

    def test_create_table_constraints(self):
        stmt = parse(
            "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a), UNIQUE (a, b), "
            "FOREIGN KEY (b) REFERENCES u(id), CHECK (a > 0))"
        )
        assert stmt.primary_key == ["a"]
        assert stmt.uniques == [["a", "b"]]
        assert stmt.foreign_keys[0].ref_table == "u"
        assert len(stmt.checks) == 1

    def test_column_level_references(self):
        stmt = parse("CREATE TABLE t (a INT REFERENCES u(id))")
        assert stmt.columns[0].references == ("u", "id")

    def test_column_check(self):
        stmt = parse("CREATE TABLE t (a INT CHECK (a >= 0))")
        assert stmt.columns[0].check is not None

    def test_if_not_exists(self):
        assert parse("CREATE TABLE IF NOT EXISTS t (a INT)").if_not_exists

    def test_drop_table(self):
        stmt = parse("DROP TABLE t1, t2")
        assert stmt.tables == ["t1", "t2"]
        assert not stmt.cascade

    def test_drop_table_if_exists_cascade(self):
        stmt = parse("DROP TABLE IF EXISTS t CASCADE")
        assert stmt.if_exists
        assert stmt.cascade

    def test_drop_database_parses_as_cascade_drop(self):
        stmt = parse("DROP DATABASE prod")
        assert stmt.cascade

    def test_alter_add_column(self):
        stmt = parse("ALTER TABLE t ADD COLUMN c INT NOT NULL")
        assert stmt.action == "ADD_COLUMN"
        assert stmt.column.not_null

    def test_alter_drop_column(self):
        stmt = parse("ALTER TABLE t DROP COLUMN c")
        assert stmt.action == "DROP_COLUMN"
        assert stmt.old_name == "c"

    def test_alter_rename_column(self):
        stmt = parse("ALTER TABLE t RENAME COLUMN a TO b")
        assert stmt.action == "RENAME_COLUMN"
        assert (stmt.old_name, stmt.new_name) == ("a", "b")

    def test_alter_rename_table(self):
        stmt = parse("ALTER TABLE t RENAME TO u")
        assert stmt.action == "RENAME_TABLE"

    def test_create_index(self):
        stmt = parse("CREATE UNIQUE INDEX ix ON t (a, b)")
        assert stmt.unique
        assert stmt.columns == ["a", "b"]

    def test_drop_index(self):
        assert parse("DROP INDEX IF EXISTS ix").if_exists

    def test_create_view(self):
        stmt = parse("CREATE VIEW v AS SELECT a FROM t")
        assert stmt.name == "v"

    def test_create_or_replace_view(self):
        assert parse("CREATE OR REPLACE VIEW v AS SELECT 1").or_replace

    def test_drop_view(self):
        assert parse("DROP VIEW v1, v2").names == ["v1", "v2"]


class TestTransactionsAndPrivileges:
    def test_begin_variants(self):
        assert isinstance(parse("BEGIN"), ast.BeginStatement)
        assert isinstance(parse("BEGIN TRANSACTION"), ast.BeginStatement)
        assert isinstance(parse("START TRANSACTION"), ast.BeginStatement)

    def test_commit_rollback(self):
        assert isinstance(parse("COMMIT"), ast.CommitStatement)
        assert isinstance(parse("ROLLBACK"), ast.RollbackStatement)

    def test_savepoints(self):
        assert parse("SAVEPOINT sp1").name == "sp1"
        assert parse("ROLLBACK TO SAVEPOINT sp1").savepoint == "sp1"
        assert parse("RELEASE SAVEPOINT sp1").name == "sp1"

    def test_grant(self):
        stmt = parse("GRANT SELECT, INSERT ON t1, t2 TO bob")
        assert stmt.actions == ["SELECT", "INSERT"]
        assert stmt.objects == ["t1", "t2"]
        assert stmt.grantee == "bob"

    def test_grant_all(self):
        assert parse("GRANT ALL PRIVILEGES ON t TO bob").actions == ["ALL"]

    def test_grant_column_level(self):
        stmt = parse("GRANT SELECT (a, b) ON t TO bob")
        assert stmt.columns == ["a", "b"]

    def test_revoke(self):
        stmt = parse("REVOKE DELETE ON t FROM bob")
        assert isinstance(stmt, ast.RevokeStatement)

    def test_unknown_privilege_action(self):
        with pytest.raises(SQLSyntaxError):
            parse("GRANT FLY ON t TO bob")


class TestScriptsAndErrors:
    def test_parse_script(self):
        stmts = parse_script("SELECT 1; SELECT 2; ;")
        assert len(stmts) == 2

    def test_trailing_semicolon_ok(self):
        assert isinstance(parse("SELECT 1;"), ast.SelectStatement)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT 1 SELECT 2")

    def test_empty_statement_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("")

    def test_statement_action_mapping(self):
        assert statement_action(parse("SELECT 1")) == "SELECT"
        assert statement_action(parse("INSERT INTO t VALUES (1)")) == "INSERT"
        assert statement_action(parse("UPDATE t SET a=1")) == "UPDATE"
        assert statement_action(parse("DELETE FROM t")) == "DELETE"
        assert statement_action(parse("CREATE TABLE t (a INT)")) == "CREATE"
        assert statement_action(parse("DROP TABLE t")) == "DROP"
        assert statement_action(parse("ALTER TABLE t RENAME TO u")) == "ALTER"
        assert statement_action(parse("BEGIN")) == "OTHER"

    @pytest.mark.parametrize(
        "sql, where",
        [
            # both fail at the parent of PR 15, which reported the offset
            # after the offending token: 37 and 15
            ("SELECT * FROM t WHERE a = 'hello' 'x'", "near 'x' (position 34)"),
            ("SELECT 12345 67 FROM t", "near '67' (position 13)"),
            ('SELECT a FROM t "u" "v"', "near 'v' (position 20)"),
        ],
    )
    def test_error_names_the_offending_tokens_first_character(self, sql, where):
        with pytest.raises(SQLSyntaxError) as caught:
            parse(sql)
        assert where in str(caught.value)
        assert str(caught.value).endswith(f"in: {sql}")

    def test_begin_takes_nothing_but_transaction(self):
        # the parent accepted BEGIN START TRANSACTION by accident
        assert isinstance(parse("BEGIN TRANSACTION"), ast.BeginStatement)
        assert isinstance(parse("START TRANSACTION"), ast.BeginStatement)
        with pytest.raises(SQLSyntaxError, match="unexpected trailing input"):
            parse("BEGIN START TRANSACTION")


class TestBuiltByConstruction:
    """The parser creates each node once, complete (its nodes are frozen).
    The first three pin the shapes the parent assembled by assignment and
    pass there too; the last one needs the cache."""

    def test_trailing_clauses_of_a_set_operation_bind_to_the_whole(self):
        stmt = parse(
            "SELECT a FROM t UNION ALL SELECT b FROM u INTERSECT SELECT c FROM w "
            "ORDER BY 1 DESC LIMIT 3 OFFSET 1"
        )
        assert (len(stmt.order_by), stmt.limit, stmt.offset) == (1, 3, 1)
        kind, middle = stmt.set_op
        assert kind == "UNION ALL"
        assert (middle.order_by, middle.limit, middle.offset) == ([], None, None)
        kind, last = middle.set_op
        assert kind == "INTERSECT" and last.set_op is None
        assert (last.order_by, last.limit, last.offset) == ([], None, None)

    def test_a_subquery_arm_keeps_its_own_trailing_clauses(self):
        stmt = parse("SELECT a FROM (SELECT a FROM t ORDER BY a LIMIT 2) x UNION SELECT 1")
        inner = stmt.from_sources[0].subquery
        assert (len(inner.order_by), inner.limit) == (1, 2)
        assert stmt.order_by == [] and stmt.limit is None

    def test_column_constraints_in_any_order(self):
        stmt = parse(
            "CREATE TABLE t (a INT UNIQUE NOT NULL DEFAULT 7 REFERENCES u(id) CHECK (a > 0),"
            " b TEXT NULL PRIMARY KEY, PRIMARY KEY (a, b), UNIQUE (b), CHECK (a < 9),"
            " FOREIGN KEY (b) REFERENCES w)"
        )
        a, b = stmt.columns
        assert (a.unique, a.not_null, a.primary_key, a.references) == (True, True, False, ("u", "id"))
        assert a.default == ast.Literal(7) and isinstance(a.check, ast.BinaryOp)
        assert (b.primary_key, b.not_null, b.unique, b.default) == (True, False, False, None)
        assert stmt.primary_key == ["a", "b"] and stmt.uniques == [["b"]]
        assert len(stmt.checks) == 1
        assert stmt.foreign_keys == [ast.ForeignKeyDef(["b"], "w", [])]

    def test_identical_text_yields_the_identical_statement(self):
        sql = "SELECT a FROM t WHERE a = 1 /* parse-cache identity */"
        assert parse(sql) is parse(sql)
        assert parse(sql + " ") is not parse(sql) and parse(sql + " ") == parse(sql)
