"""Unit tests for storage, catalog, ResultSet, and SQL generation."""

import pytest

from repro.minidb import Database, UniqueViolation, parse
from repro.minidb.catalog import Catalog, Column, TableSchema
from repro.minidb.errors import DuplicateObjectError, UnknownTableError
from repro.minidb.result import ResultSet
from repro.minidb.sqlgen import expr_to_sql
from repro.minidb.storage import HashIndex, HeapTable
from repro.minidb.types import ColumnType


class TestHeapTable:
    @pytest.fixture
    def heap(self):
        return HeapTable("t")

    def test_insert_assigns_monotonic_rids(self, heap):
        first = heap.insert({"a": 1})
        second = heap.insert({"a": 2})
        assert second == first + 1

    def test_rows_in_rid_order(self, heap):
        heap.insert({"a": 2})
        heap.insert({"a": 1})
        assert [row["a"] for _, row in heap.rows()] == [2, 1]

    def test_insert_copies_row(self, heap):
        row = {"a": 1}
        rid = heap.insert(row)
        row["a"] = 99
        assert heap.get(rid)["a"] == 1

    def test_delete_returns_old_row(self, heap):
        rid = heap.insert({"a": 1})
        assert heap.delete(rid) == {"a": 1}
        assert heap.get(rid) is None

    def test_restore_reuses_rid(self, heap):
        rid = heap.insert({"a": 1})
        old = heap.delete(rid)
        heap.restore(rid, old)
        assert heap.get(rid) == {"a": 1}

    def test_update_returns_previous(self, heap):
        rid = heap.insert({"a": 1})
        previous = heap.update(rid, {"a": 2})
        assert previous == {"a": 1}
        assert heap.get(rid) == {"a": 2}

    def test_unique_index_blocks_duplicates(self, heap):
        heap.add_index(HashIndex("ux", ("a",), unique=True))
        heap.insert({"a": 1})
        with pytest.raises(UniqueViolation):
            heap.insert({"a": 1})
        assert len(heap) == 1  # heap untouched after failed insert

    def test_unique_index_allows_nulls(self, heap):
        heap.add_index(HashIndex("ux", ("a",), unique=True))
        heap.insert({"a": None})
        heap.insert({"a": None})
        assert len(heap) == 2

    def test_index_probe(self, heap):
        index = HashIndex("ix", ("a",))
        heap.add_index(index)
        rid = heap.insert({"a": 7})
        assert index.probe((7,)) == {rid}
        assert index.probe((8,)) == set()

    def test_index_maintained_on_update_delete(self, heap):
        index = HashIndex("ix", ("a",))
        heap.add_index(index)
        rid = heap.insert({"a": 1})
        heap.update(rid, {"a": 2})
        assert index.probe((1,)) == set()
        assert index.probe((2,)) == {rid}
        heap.delete(rid)
        assert index.probe((2,)) == set()

    def test_backfill_on_add_index(self, heap):
        heap.insert({"a": 1})
        heap.insert({"a": 1})
        index = HashIndex("ix", ("a",))
        heap.add_index(index)
        assert len(index.probe((1,))) == 2

    def test_composite_index(self, heap):
        index = HashIndex("ix", ("a", "b"), unique=True)
        heap.add_index(index)
        heap.insert({"a": 1, "b": 1})
        heap.insert({"a": 1, "b": 2})  # differs in second column
        with pytest.raises(UniqueViolation):
            heap.insert({"a": 1, "b": 1})

    def test_column_operations(self, heap):
        heap.insert({"a": 1})
        heap.add_column("b", default=0)
        assert heap.get(1)["b"] == 0
        heap.rename_column("b", "c")
        assert "c" in heap.get(1)
        heap.drop_column("c")
        assert "c" not in heap.get(1)

    def test_would_violate(self, heap):
        index = HashIndex("ux", ("a",), unique=True)
        heap.add_index(index)
        rid = heap.insert({"a": 1})
        assert index.would_violate({"a": 1})
        assert not index.would_violate({"a": 1}, ignore_rid=rid)
        assert not index.would_violate({"a": 2})

    def test_add_index_rolls_back_partial_backfill(self, heap):
        heap.insert({"a": 1, "b": 1})
        heap.insert({"a": 2, "b": 2})
        heap.insert({"a": 3, "b": 1})  # duplicate b: backfill fails mid-way
        index = HashIndex("ux", ("b",), unique=True)
        with pytest.raises(UniqueViolation):
            heap.add_index(index)
        assert "ux" not in heap.indexes
        # earlier rids must have been removed from the buckets again
        assert len(index) == 0
        assert index.probe((1,)) == set()
        assert index.probe((2,)) == set()


class TestCatalog:
    def make_schema(self, name="t"):
        return TableSchema(
            name=name,
            columns=[Column("id", ColumnType("INTEGER")), Column("s", ColumnType("TEXT"))],
            primary_key=("id",),
        )

    def test_add_and_lookup_case_insensitive(self):
        catalog = Catalog()
        catalog.add_table(self.make_schema("Orders"))
        assert catalog.table("orders").name == "Orders"
        assert catalog.has_object("ORDERS")

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.add_table(self.make_schema())
        with pytest.raises(DuplicateObjectError):
            catalog.add_table(self.make_schema())

    def test_unknown_lookup(self):
        with pytest.raises(UnknownTableError):
            Catalog().table("ghost")

    def test_object_names_sorted(self):
        catalog = Catalog()
        catalog.add_table(self.make_schema("zz"))
        catalog.add_table(self.make_schema("aa"))
        assert catalog.object_names() == ["aa", "zz"]

    def test_rename_updates_indexes(self):
        db = Database(owner="a")
        session = db.connect("a")
        session.execute("CREATE TABLE t (a INT)")
        session.execute("CREATE INDEX ix ON t (a)")
        session.execute("ALTER TABLE t RENAME TO u")
        assert db.catalog.index("ix").table == "u"

    def test_render_create_round_trips(self):
        db = Database(owner="a")
        session = db.connect("a")
        session.execute(
            "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(10) NOT NULL, "
            "price FLOAT DEFAULT 1.5 CHECK (price >= 0), UNIQUE (name))"
        )
        rendered = db.catalog.table("t").render_create()
        db2 = Database(owner="a")
        db2.connect("a").execute(rendered)
        schema = db2.catalog.table("t")
        assert schema.primary_key == ("id",)
        assert schema.column("name").not_null
        assert schema.column("price").default == 1.5
        assert len(schema.checks) == 1


class TestResultSet:
    def test_scalar_empty(self):
        assert ResultSet().scalar() is None

    def test_first(self):
        result = ResultSet(columns=["a"], rows=[(1,), (2,)])
        assert result.first() == (1,)

    def test_to_dicts(self):
        result = ResultSet(columns=["a", "b"], rows=[(1, 2)])
        assert result.to_dicts() == [{"a": 1, "b": 2}]

    def test_iteration_and_len(self):
        result = ResultSet(columns=["a"], rows=[(1,), (2,)])
        assert list(result) == [(1,), (2,)]
        assert len(result) == 2

    def test_column_built_len_does_not_depend_on_reads(self):
        result = ResultSet(columns=["a"], values=[[1, 2, 3]])
        assert len(result) == 3
        assert result.rows == [(1,), (2,), (3,)]
        assert len(result) == 3
        assert len(ResultSet(values=[])) == 0

    def test_render_with_truncation(self):
        result = ResultSet(columns=["a"], rows=[(i,) for i in range(10)])
        text = result.render(max_rows=3)
        assert "7 more rows" in text
        assert "(10 rows)" in text

    def test_render_status_only(self):
        assert ResultSet(status="INSERT 2").render() == "INSERT 2"

    def test_render_null(self):
        text = ResultSet(columns=["a"], rows=[(None,)]).render()
        assert "NULL" in text


class TestSqlGen:
    @pytest.mark.parametrize(
        "sql",
        [
            "a + b * 2",
            "price >= 0 AND qty < 10",
            "name LIKE 'a%'",
            "x IS NOT NULL",
            "v BETWEEN 1 AND 5",
            "c IN (1, 2, 3)",
            "CASE WHEN a > 0 THEN 'p' ELSE 'n' END",
            "UPPER(name) || '!'",
            "CAST(a AS INTEGER)",
            "NOT (a = 1)",
        ],
    )
    def test_round_trip_parses(self, sql):
        expr = parse(f"SELECT * FROM t WHERE {sql}").where
        regenerated = expr_to_sql(expr)
        reparsed = parse(f"SELECT * FROM t WHERE {regenerated}").where
        assert expr_to_sql(reparsed) == regenerated

    def test_literal_escaping(self):
        expr = parse("SELECT 'it''s'").items[0].expr
        assert expr_to_sql(expr) == "'it''s'"

    def test_null_and_bool_literals(self):
        stmt = parse("SELECT NULL, TRUE, FALSE")
        rendered = [expr_to_sql(i.expr) for i in stmt.items]
        assert rendered == ["NULL", "TRUE", "FALSE"]
